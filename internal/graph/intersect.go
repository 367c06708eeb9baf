package graph

import "math/bits"

// Set intersection of sorted index lists — the inner loop of every EDGE
// ITERATOR variant. Every kernel has one generic body over Index: 4-byte
// row indices (every row-translated A-list, 2D block entry and row mark)
// and 8-byte global IDs (the OutGraph of SeqCount, received records, the
// streaming engine's marks). Two families of kernels are provided.
// Pairwise, for a single intersection with nothing to amortise:
//
//   - CountMerge: the textbook two-pointer merge (branchy; fast when the
//     comparison outcome is predictable, i.e. very clustered inputs).
//   - CountGallop: exponential + binary search of each element of the
//     smaller slice in the larger one — wins on skewed operand sizes.
//
// CountIntersect dispatches per pair between the branchy merge and
// galloping. Set-based, where one side is a Bitset and the other a list
// tested against it — one bit test per list entry whatever the set's size:
//
//   - CountList / CountListSplit / ForEachCommonList (and Bitset.CountAnd
//     for bitset ∩ bitset). The set is either a build-time hub
//     bitmap (the hub index in oriented.go / order.go) or a Mark stamped at
//     run time with a source list that several partner lists are then
//     probed against — the stamped wedge kernel every 1D row-space wedge and
//     every TK2D round goes through; LocalOriented.Probe picks the sides.

// Index is the element type of the sorted lists the kernels run on: uint32
// for row indices (row space is bounded to 2³¹−1 rows per PE, see
// MaxRows), Vertex for global IDs.
type Index interface{ uint32 | uint64 }

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
func CountIntersect[T Index](a, b []T) uint64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	if Skewed(len(a), len(b)) || Skewed(len(b), len(a)) {
		return CountGallop(a, b)
	}
	return CountMerge(a, b)
}

// ForEachCommon calls fn for every element of a ∩ b, in ascending order.
func ForEachCommon[T Index](a, b []T, fn func(T)) {
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
func CountGallop[T Index](a, b []T) uint64 {
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
func CountMerge[T Index](a, b []T) uint64 {
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

// Bitset is a packed membership index over a dense integer domain [0, n).
// It backs the hub-bitmap kernel: testing one element is a shift-and-mask,
// intersecting two bitsets is word-AND + popcount.
type Bitset []uint64

// BitsetWords returns the number of words a Bitset over [0, n) occupies.
func BitsetWords(n int) int { return (n + 63) / 64 }

// NewBitset returns an empty bitset over [0, n).
func NewBitset(n int) Bitset { return make(Bitset, BitsetWords(n)) }

// SetList marks every element of list (elements must be inside the domain).
func SetList[T Index](bs Bitset, list []T) {
	for _, x := range list {
		bs[x>>6] |= 1 << (x & 63)
	}
}

// CountList returns |list ∩ bs| by one branchless membership test per list
// element: O(len(list)) independent of the indexed set's size. Every list
// element must lie inside the bitset's domain.
func CountList[T Index](bs Bitset, list []T) uint64 {
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
func CountListSplit[T Index](bs Bitset, list []T, split T) (below, rest uint64) {
	i := 0
	for ; i < len(list) && list[i] < split; i++ {
		x := list[i]
		below += bs[x>>6] >> (x & 63) & 1
	}
	return below, CountList(bs, list[i:])
}

// ForEachCommonList calls fn for every element of list that is a member of
// bs, in list order (ascending for sorted lists).
func ForEachCommonList[T Index](bs Bitset, list []T, fn func(T)) {
	for _, x := range list {
		if bs[x>>6]>>(x&63)&1 != 0 {
			fn(x)
		}
	}
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

// Mark is the reusable "mark once" half of the stamped wedge kernel: a
// bitset over a dense domain — row indices in the static engines (RowMark),
// global IDs in the streaming delta engine, which never builds a row space —
// holding one ascending list (a source neighborhood A(v)), against which any
// number of partner lists A(u) are then probed. Stamp sets the list's L
// bits, Unstamp zeroes exactly the words those L entries touched — never the
// whole domain — so a mark costs 2·L word writes however large the domain
// is, and between stampings the bitset is all-zero.
//
// A mark holds one list at a time. Code that can be re-entered while its
// list is stamped (a queue handler dispatched from inside a send, see
// core.countState) needs a mark per nesting level; Stamp panics on a mark
// that is still stamped rather than let two lists blend into one miscount.
type Mark[T Index] struct {
	bits Bitset
	list []T // the stamped list (aliased, not copied); nil when clear
}

// RowMark is a Mark over row indices.
type RowMark = Mark[uint32]

// NewMark returns a clear mark over the dense domain [0, n) (n/8 bytes).
func NewMark[T Index](n int) *Mark[T] { return &Mark[T]{bits: NewBitset(n)} }

// Stamp marks list, which must hold in-domain indices, ascending (every
// OutRows slice and every TranslateRows result qualifies). The slice is
// aliased until Unstamp.
func (m *Mark[T]) Stamp(list []T) {
	if m.list != nil {
		panic("graph: Mark stamped while still holding a list")
	}
	m.list = list
	SetList(m.bits, list)
}

// Unstamp clears the stamped list's words, leaving the mark all-zero.
func (m *Mark[T]) Unstamp() {
	for _, x := range m.list {
		m.bits[x>>6] = 0
	}
	m.list = nil
}

// CountList returns |list ∩ stamped list|: one bit test per element of list,
// which must lie inside the mark's domain.
func (m *Mark[T]) CountList(list []T) uint64 { return CountList(m.bits, list) }

// ForEachCommonList calls fn for every element of list ∩ stamped list, in
// list order.
func (m *Mark[T]) ForEachCommonList(list []T, fn func(T)) {
	ForEachCommonList(m.bits, list, fn)
}
