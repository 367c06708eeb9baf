package graph

import "math/bits"

// Set intersection of sorted index lists — the inner loop of every EDGE
// ITERATOR variant. Every pairwise and Bitset kernel has one generic body
// over Index: 4-byte row indices (every row-translated A-list and 2D block
// entry) and 8-byte global IDs (received records, the streaming engine's
// record lists); the Mark is row space only, the SplitMark global IDs only.
// Two families of kernels are provided.
// Pairwise, for a single intersection with nothing to amortise:
//
//   - CountMerge: the textbook two-pointer merge (branchy; fast when the
//     comparison outcome is predictable, i.e. very clustered inputs).
//   - CountGallop: exponential + binary search of each element of the
//     smaller slice in the larger one — wins on skewed operand sizes.
//
// CountIntersect dispatches per pair between the branchy merge and
// galloping. Set-based, where one side is a membership index and the other
// a list tested against it — one test per list entry whatever the set's
// size:
//
//   - Mark.CountList / CountListSplit / ForEachCommonList: the Mark is one
//     byte per row, stamped at run time with a source list that several
//     partner lists are then probed against, one byte load per entry — the
//     stamped wedge kernel every 1D row-space wedge and every TK2D round
//     goes through.
//   - CountList / ForEachCommonList over a Bitset (and Bitset.CountAnd for
//     bitset ∩ bitset): the build-time bitmaps, TriC's hub index
//     (oriented.go; LocalOriented.Probe picks it when it is the shorter
//     side) and the StreamBuilder's row bitmaps (the streaming builder's
//     staged-batch subtraction and the delta engine's long partners).
//   - SplitMark.CountList: the streaming delta engine's byte mark over
//     global IDs, holding one record's old(v) as 1 and Δ(v) as 2, so one
//     byte load per probed entry yields both of its category hits.

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
// It backs the build-time bitmaps (TriC's hubs, the StreamBuilder's rows):
// testing one element is a shift-and-mask, intersecting two bitsets is
// word-AND + popcount.
type Bitset []uint64

// BitsetWords returns the number of words a Bitset over [0, n) occupies.
func BitsetWords(n int) int { return (n + 63) / 64 }

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

// Mark is the reusable "mark once" half of the stamped wedge kernel: one
// byte per index of a dense domain of row indices — the 1D engines' row
// space (LocalOriented.NewRowMark) or a TK2D band — holding one list (a
// source neighborhood A(v)), against which any number of partner
// lists A(u) are then probed. Stamp writes 1 at the list's L entries,
// Unstamp writes 0 at exactly those entries — never the whole domain — so a
// mark costs 2·L byte writes however large the domain is, and between
// stampings every byte is 0. A probe is one byte load per entry with no
// shift: a variable shift pins its count to one register on amd64, which
// the bit test of a Bitset pays on every entry of the hot loops.
//
// A mark holds one list at a time. Code that can be re-entered while its
// list is stamped (a queue handler dispatched from inside a send, see
// core.countState) needs a mark per nesting level; Stamp panics on a mark
// that is still stamped rather than let two lists blend into one miscount.
type Mark struct {
	on   []byte   // on[x] == 1 iff x is in the stamped list
	list []uint32 // the stamped list (aliased, not copied); nil when clear
}

// NewMark returns a clear mark over the dense domain [0, n) (n bytes).
func NewMark(n int) *Mark { return &Mark{on: make([]byte, n)} }

// markHeld is the nesting guard's panic, shared by Mark and SplitMark.
const markHeld = "graph: Mark stamped while still holding a list"

// Stamp marks list, which must hold distinct in-domain indices in any
// order (every OutRows slice and every TranslateRows or TranslateRowSet
// result of a well-formed A-list qualifies). The slice is aliased until
// Unstamp.
func (m *Mark) Stamp(list []uint32) {
	if m.list != nil {
		panic(markHeld)
	}
	m.list = list
	on := m.on
	for _, x := range list {
		on[x] = 1
	}
}

// Unstamp clears the stamped list's bytes, leaving the mark all-zero.
func (m *Mark) Unstamp() {
	on := m.on
	for _, x := range m.list {
		on[x] = 0
	}
	m.list = nil
}

// CountList returns |list ∩ stamped list|: one byte load per element of
// list, which must lie inside the mark's domain.
func (m *Mark) CountList(list []uint32) uint64 {
	on := m.on
	var cnt uint64
	for _, x := range list {
		cnt += uint64(on[x])
	}
	return cnt
}

// CountListSplit is CountList split at a value: below counts the members of
// list that are < split, rest those ≥ split. list must be ascending, so the
// members below split are a prefix.
func (m *Mark) CountListSplit(list []uint32, split uint32) (below, rest uint64) {
	on := m.on
	i := 0
	for ; i < len(list) && list[i] < split; i++ {
		below += uint64(on[list[i]])
	}
	return below, m.CountList(list[i:])
}

// ForEachCommonList calls fn for every element of list ∩ stamped list, in
// list order.
func (m *Mark) ForEachCommonList(list []uint32, fn func(uint32)) {
	on := m.on
	for _, x := range list {
		if on[x] != 0 {
			fn(x)
		}
	}
}

// IsClear reports whether no byte is set: the state between stampings.
func (m *Mark) IsClear() bool {
	for _, b := range m.on {
		if b != 0 {
			return false
		}
	}
	return true
}

// SplitMark is a Mark over global IDs that holds one neighborhood split
// into two disjoint lists — the streaming delta engine stamps a record's
// old(v) and Δ(v) — one byte per ID: 1 for a member of a, 2 for a member of
// b. One byte load per probed entry yields the entry's membership in both,
// with no shift. Over [0, n) it costs n bytes. It keeps Mark's contract:
// Unstamp zeroes only the stamped entries, and stamping a mark that still
// holds its lists panics.
type SplitMark struct {
	on   []byte   // on[x] is 1 if x ∈ a, 2 if x ∈ b, 0 otherwise
	a, b []Vertex // the stamped lists (aliased, not copied)
	held bool
}

// NewSplitMark returns a clear split mark over the IDs [0, n) (n bytes).
func NewSplitMark(n int) *SplitMark { return &SplitMark{on: make([]byte, n)} }

// Stamp marks a with 1 and b with 2, and reports whether the two lists were
// disjoint, as the counts require: each entry of b checks its byte before
// writing it. Both lists must hold in-domain IDs, each free of repeats; they
// are aliased until Unstamp, which a caller that got false must call before
// it gives up on the lists.
func (m *SplitMark) Stamp(a, b []Vertex) (disjoint bool) {
	if m.held {
		panic(markHeld)
	}
	m.a, m.b, m.held = a, b, true
	on := m.on
	for _, x := range a {
		on[x] = 1
	}
	var met byte
	for _, x := range b {
		met |= on[x]
		on[x] = 2
	}
	return met == 0
}

// Unstamp clears the stamped lists' bytes, leaving the mark all-zero.
func (m *SplitMark) Unstamp() {
	on := m.on
	for _, x := range m.a {
		on[x] = 0
	}
	for _, x := range m.b {
		on[x] = 0
	}
	m.a, m.b, m.held = nil, nil, false
}

// CountList returns |list ∩ a| and |list ∩ b| by one byte load per element
// of list, which must lie inside the mark's domain. Kept out of line:
// inlined into the delta engine's partner loop (core.streamState), it
// spilled the loaded byte and both sums to the stack on every probed entry.
//
//go:noinline
func (m *SplitMark) CountList(list []Vertex) (inA, inB uint64) {
	on := m.on
	for _, x := range list {
		c := on[x]
		inA += uint64(c & 1)
		inB += uint64(c >> 1)
	}
	return inA, inB
}

// Holds reports whether x, which must lie inside the mark's domain, is in
// either stamped list.
func (m *SplitMark) Holds(x Vertex) bool { return m.on[x] != 0 }

// IsClear reports whether no byte is set: the state between stampings.
func (m *SplitMark) IsClear() bool {
	for _, c := range m.on {
		if c != 0 {
			return false
		}
	}
	return true
}
