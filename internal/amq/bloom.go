// Package amq provides the approximate membership query (AMQ) data structure
// of the paper's approximate triangle counting extension (§IV-E): a standard
// Bloom filter. A filter is a view of machine words — a two-word header
// followed by the filter words — so it is built straight into an outgoing
// message buffer (AppendBloom) and probed in place in the received one
// (ViewBloom): neither side copies it. The view is a value; its methods take
// a pointer, so the per-probe call passes one word, not the view.
package amq

import (
	"fmt"
	"math"
	"math/bits"
)

// maxBloomK bounds the number of hash functions AppendBloom chooses; a
// received header beyond it is malformed.
const maxBloomK = 16

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
	k := min(max(int(math.Round(bitsPerKey*math.Ln2)), 1), maxBloomK)
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
