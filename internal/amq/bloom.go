// Package amq provides approximate membership query (AMQ) data structures
// for the paper's approximate triangle counting extension (§IV-E): a
// standard Bloom filter and a blocked Bloom filter in the spirit of the
// cache-efficient variants of Putze, Sanders and Singler [42]. A filter is a
// view of machine words — a two-word header followed by the filter words —
// so it is built straight into an outgoing message buffer (AppendBloom,
// AppendBlocked) and probed in place in the received one (ViewBloom,
// ViewBlocked): neither side copies it. The views are values; their methods
// take pointers, so the per-probe call passes one word, not the view.
package amq

import (
	"fmt"
	"math"
	"math/bits"
)

// Upper bounds on the number of hash functions, as chosen by the
// constructors; a received header beyond them is malformed.
const (
	maxBloomK   = 16
	maxBlockedK = 8
)

// mix64 is a strong 64-bit finalizer (splitmix64) used to derive the k
// probe positions from one key.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// optimalK is the hash count k = bitsPerKey·ln 2, clamped to [1, limit].
func optimalK(bitsPerKey float64, limit int) int {
	return min(max(int(math.Round(bitsPerKey*math.Ln2)), 1), limit)
}

// Bloom is a standard Bloom filter over m bits with k hash functions,
// serialized as [m, k, bit words...].
type Bloom struct {
	bits []uint64
	m    uint64 // number of bits
	k    int
}

// AppendBloom appends an empty filter sized for n keys at bitsPerKey bits
// each to dst and returns the extended slice and a view of the appended
// filter (valid until dst is next grown). The number of hash functions is
// the optimum k = bitsPerKey·ln 2, at least 1.
func AppendBloom(dst []uint64, n int, bitsPerKey float64) ([]uint64, Bloom) {
	m := uint64(math.Ceil(float64(max(n, 1)) * bitsPerKey))
	m = (max(m, 64) + 63) / 64 * 64
	k := optimalK(bitsPerKey, maxBloomK)
	dst = append(append(dst, m, uint64(k)), make([]uint64, m/64)...)
	return dst, Bloom{bits: dst[len(dst)-int(m/64):], m: m, k: k}
}

// ViewBloom views a serialized filter in place. A header that does not
// describe the words — m not 64 × the number of bit words (at least one), or
// k outside [1, 16] — is an error, never a filter that probes out of range.
func ViewBloom(words []uint64) (Bloom, error) {
	if len(words) < 3 || words[0] != 64*uint64(len(words)-2) || words[1] < 1 || words[1] > maxBloomK {
		return Bloom{}, fmt.Errorf("bloom header %v does not describe %d bit words", words[:min(len(words), 2)], max(len(words)-2, 0))
	}
	return Bloom{bits: words[2:], m: words[0], k: int(words[1])}, nil
}

// probe returns the i-th probe position for key. The probes are k
// independent hashes (not the double-hashing shortcut): on the small filters
// that per-neighborhood shipping produces, double hashing's correlated
// arithmetic-progression probes bias the false-positive rate away from the
// (ones/m)^k model that the truthful estimator relies on.
func (b *Bloom) probe(key uint64, i int) uint64 {
	return mix64(key^(uint64(i)+1)*0x9E3779B97F4A7C15) % b.m
}

// Insert adds key to the filter.
func (b *Bloom) Insert(key uint64) {
	for i := 0; i < b.k; i++ {
		pos := b.probe(key, i)
		b.bits[pos/64] |= 1 << (pos % 64)
	}
}

// MayContain probes the filter; false positives possible, false negatives
// not.
func (b *Bloom) MayContain(key uint64) bool {
	for i := 0; i < b.k; i++ {
		pos := b.probe(key, i)
		if b.bits[pos/64]&(1<<(pos%64)) == 0 {
			return false
		}
	}
	return true
}

// FPR returns the classic estimate (1 − e^{−kn/m})^k for n inserted keys.
func (b *Bloom) FPR(n int) float64 {
	return math.Pow(1-math.Exp(-float64(b.k)*float64(n)/float64(b.m)), float64(b.k))
}

// LoadFPR returns the false-positive rate implied by the actual fraction of
// set bits, (ones/m)^k. For small filters this is considerably more accurate
// than the asymptotic formula and is what the truthful estimator uses at
// query time.
func (b *Bloom) LoadFPR() float64 {
	ones := 0
	for _, w := range b.bits {
		ones += bits.OnesCount64(w)
	}
	return math.Pow(float64(ones)/float64(b.m), float64(b.k))
}

// Blocked is a blocked Bloom filter: each key hashes to one 64-bit block and
// sets k bits inside it — one cache line (here: one word) per query, the
// trick of the cache-efficient Bloom filters of [42]. Slightly worse FPR per
// bit, much cheaper probes. Serialized as [#blocks, k, blocks...].
type Blocked struct {
	blocks []uint64
	k      int
}

// AppendBlocked appends an empty blocked filter sized for n keys at
// bitsPerKey bits each to dst and returns the extended slice and a view of
// the appended filter (valid until dst is next grown).
func AppendBlocked(dst []uint64, n int, bitsPerKey float64) ([]uint64, Blocked) {
	nblocks := max(int(math.Ceil(float64(max(n, 1))*bitsPerKey/64)), 1)
	k := optimalK(bitsPerKey, maxBlockedK)
	dst = append(append(dst, uint64(nblocks), uint64(k)), make([]uint64, nblocks)...)
	return dst, Blocked{blocks: dst[len(dst)-nblocks:], k: k}
}

// ViewBlocked views a serialized blocked filter in place. A header that does
// not describe the words — a block count other than the number of block
// words (at least one), or k outside [1, 8] — is an error.
func ViewBlocked(words []uint64) (Blocked, error) {
	if len(words) < 3 || words[0] != uint64(len(words)-2) || words[1] < 1 || words[1] > maxBlockedK {
		return Blocked{}, fmt.Errorf("blocked header %v does not describe %d block words", words[:min(len(words), 2)], max(len(words)-2, 0))
	}
	return Blocked{blocks: words[2:], k: int(words[1])}, nil
}

func (b *Blocked) mask(key uint64) (int, uint64) {
	h := mix64(key)
	blk := int(h % uint64(len(b.blocks)))
	h = mix64(h)
	var m uint64
	for i := 0; i < b.k; i++ {
		m |= 1 << (h & 63)
		h >>= 6
	}
	return blk, m
}

// Insert adds key.
func (b *Blocked) Insert(key uint64) {
	blk, m := b.mask(key)
	b.blocks[blk] |= m
}

// MayContain probes one block.
func (b *Blocked) MayContain(key uint64) bool {
	blk, m := b.mask(key)
	return b.blocks[blk]&m == m
}

// LoadFPR averages the per-block implied rates (ones/64)^k — a query hits a
// uniformly random block, so this is the exact expectation given the loads.
func (b *Blocked) LoadFPR() float64 {
	var sum float64
	for _, blk := range b.blocks {
		sum += math.Pow(float64(bits.OnesCount64(blk))/64, float64(b.k))
	}
	return sum / float64(len(b.blocks))
}

// FPR estimates the rate via the standard blocked-filter approximation with
// per-block load n/#blocks.
func (b *Blocked) FPR(n int) float64 {
	load := float64(n) / float64(len(b.blocks))
	// Probability that a specific bit of a block is set after `load` keys of
	// k bits each: 1 − (1 − k/64)^load (bits within one key may collide; this
	// is the usual approximation).
	pBit := 1 - math.Pow(1-float64(b.k)/64, load)
	return math.Pow(pBit, float64(b.k))
}
