package graph

import "math/bits"

// Set intersection of sorted vertex slices — the inner loop of every EDGE
// ITERATOR variant. Two families of kernels are provided. Pairwise, for a
// single intersection with nothing to amortise:
//
//   - CountMerge: the textbook two-pointer merge (branchy; fast when the
//     comparison outcome is predictable, i.e. very clustered inputs).
//   - CountMergeBranchless: the same merge with conditional-move advances
//     instead of branches, so random interleavings pay no mispredictions.
//   - CountGallop: exponential + binary search of each element of the
//     smaller slice in the larger one — wins on skewed operand sizes.
//
// CountIntersect dispatches per pair between the branchy merge and
// galloping. Set-based, where one side is a Bitset and the other a list
// tested against it — one bit test per list entry whatever the set's size:
//
//   - Bitset.CountList / CountListSplit / ForEachCommonList (and CountAnd /
//     ForEachAnd for bitset ∩ bitset). The set is either a build-time hub
//     bitmap (the hub index in oriented.go / order.go / block.go) or a
//     RowMark stamped at run time with a source list that several partner
//     lists are then probed against — the stamped wedge kernel every 1D
//     row-space wedge goes through; LocalOriented.Probe picks the sides.

// gallopRatio is the size skew |b|/|a| beyond which galloping beats merging:
// merge is O(|a|+|b|), galloping O(|a|·log|b|).
const gallopRatio = 32

// Skewed reports whether a list of length long is more than gallopRatio times
// longer than one of length short — the skew beyond which scanning the long
// side (a merge, or one bit test per entry against a stamped mark) loses to
// galloping the short side through it.
func Skewed(short, long int) bool { return short*gallopRatio < long }

// CountIntersect returns |a ∩ b| for ascending-sorted slices, dispatching
// between the merge and the galloping kernel by operand skew.
//
// The balanced case uses the branchy merge, not the branchless one: the
// branchless loop trades branch mispredictions for a serial
// load→compare→setcc→add dependency chain, and on current x86 speculative
// execution of the predictable-enough branchy loop is ~2–3x faster even on
// random interleavings (see BenchmarkIntersect). The branchless kernel stays
// available for targets where the trade goes the other way.
func CountIntersect(a, b []Vertex) uint64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	if Skewed(len(a), len(b)) || Skewed(len(b), len(a)) {
		return CountGallop(a, b)
	}
	return CountMerge(a, b)
}

// ForEachCommon calls fn for every element of a ∩ b, in ascending order.
func ForEachCommon(a, b []Vertex, fn func(Vertex)) {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		if x < y {
			i++
		} else if y < x {
			j++
		} else {
			fn(x)
			i++
			j++
		}
	}
}

// CountGallop intersects by exponential + binary search of each element of
// the smaller slice in the larger one.
func CountGallop(a, b []Vertex) uint64 {
	if len(a) > len(b) {
		a, b = b, a
	}
	var cnt uint64
	lo := 0
	for _, x := range a {
		// Exponential search for x in b[lo:].
		step := 1
		hi := lo
		for hi < len(b) && b[hi] < x {
			lo = hi
			hi += step
			step *= 2
		}
		if hi > len(b) {
			hi = len(b)
		}
		// Binary search in b[lo:hi].
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if b[mid] < x {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < len(b) && b[lo] == x {
			cnt++
			lo++
		}
	}
	return cnt
}

// CountMerge is the plain branchy two-pointer merge intersection, the oracle
// kernel every other kernel is tested and benchmarked against.
func CountMerge(a, b []Vertex) uint64 {
	var cnt uint64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		if x < y {
			i++
		} else if y < x {
			j++
		} else {
			cnt++
			i++
			j++
		}
	}
	return cnt
}

// b2u converts a comparison result to 0/1; the compiler lowers this to a
// flag-set instruction, keeping the merge loop free of data-dependent
// branches.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// CountMergeBranchless is the two-pointer merge with conditional advances
// instead of data-dependent branches: every iteration executes the same
// instruction sequence, so random interleavings cost no branch
// mispredictions.
func CountMergeBranchless(a, b []Vertex) uint64 {
	var cnt uint64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		cnt += b2u(x == y)
		i += int(b2u(x <= y))
		j += int(b2u(y <= x))
	}
	return cnt
}

// Bitset is a packed membership index over a dense integer domain [0, n).
// It backs the hub-bitmap kernel: testing one element is a shift-and-mask,
// intersecting two bitsets is word-AND + popcount.
type Bitset []uint64

// BitsetWords returns the number of words a Bitset over [0, n) occupies.
func BitsetWords(n int) int { return (n + 63) / 64 }

// NewBitset returns an empty bitset over [0, n).
func NewBitset(n int) Bitset { return make(Bitset, BitsetWords(n)) }

// Set marks x as a member. x must be inside the domain.
func (bs Bitset) Set(x Vertex) { bs[x>>6] |= 1 << (x & 63) }

// Clear resets every bit.
func (bs Bitset) Clear() {
	for i := range bs {
		bs[i] = 0
	}
}

// Has reports membership of x.
func (bs Bitset) Has(x Vertex) bool { return bs[x>>6]>>(x&63)&1 != 0 }

// SetList marks every element of list (elements must be inside the domain).
func (bs Bitset) SetList(list []Vertex) {
	for _, x := range list {
		bs.Set(x)
	}
}

// CountList returns |list ∩ bs| by one branchless membership test per list
// element: O(len(list)) independent of the indexed set's size. Every list
// element must lie inside the bitset's domain.
func (bs Bitset) CountList(list []Vertex) uint64 {
	var cnt uint64
	for _, x := range list {
		cnt += bs[x>>6] >> (x & 63) & 1
	}
	return cnt
}

// CountListSplit is CountList split at a value: below counts the members of
// list that are < split, rest those ≥ split. list must be ascending, so the
// members below split are a prefix and the split test costs one predictable
// branch flip per call, not one per element.
func (bs Bitset) CountListSplit(list []Vertex, split Vertex) (below, rest uint64) {
	i := 0
	for ; i < len(list) && list[i] < split; i++ {
		x := list[i]
		below += bs[x>>6] >> (x & 63) & 1
	}
	return below, bs.CountList(list[i:])
}

// CountAnd returns |bs ∩ other| by word-AND + popcount. Both bitsets must
// cover the same domain.
func (bs Bitset) CountAnd(other Bitset) uint64 {
	var cnt int
	for i, w := range bs {
		cnt += bits.OnesCount64(w & other[i])
	}
	return uint64(cnt)
}

// ForEachCommonList calls fn for every element of list that is a member, in
// list order (ascending for sorted lists).
func (bs Bitset) ForEachCommonList(list []Vertex, fn func(Vertex)) {
	for _, x := range list {
		if bs[x>>6]>>(x&63)&1 != 0 {
			fn(x)
		}
	}
}

// ForEachAnd calls fn for every common member of bs and other, ascending.
func (bs Bitset) ForEachAnd(other Bitset, fn func(Vertex)) {
	for i, w := range bs {
		w &= other[i]
		base := Vertex(i) << 6
		for w != 0 {
			fn(base + Vertex(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
}
