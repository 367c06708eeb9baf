package graph

import "math/bits"

// ghostIndex maps a ghost's global ID to its ordinal in the sorted ghost-ID
// array (row = NLocal + ordinal) in O(1). It has two layouts; the row-slab
// builder picks one per view from the view's own input (buildRows) and the
// index is read-only afterwards, so any number of goroutines may probe it
// concurrently.
//
//   - hash: a flat open-addressing table with a power-of-two ≥ 2·|ghosts|
//     slots, multiplicative hashing and linear probing. A slot holds only an
//     ordinal (+1; 0 marks an empty slot); the key it stands for is
//     ids[ordinal], the ghost array itself, so the table costs 4 bytes per
//     slot — 8 to 16 bytes per ghost — on top of the array the view keeps
//     anyway. The load factor is at most 1/2, so a probe sequence always
//     ends at an empty slot. The row-slab builder also grows one per worker
//     through insert, as the set that discovers the ghosts in the first
//     place.
//   - dense: one int32 per global ID of the graph, ordinal+1 at a ghost's ID
//     and 0 elsewhere, so find is one load. It costs 4 bytes per vertex of
//     the graph, which the builder only pays when the view's cut entries
//     outnumber them.
//
// Nothing is reserved in the key space of either: every Vertex — 0,
// ^Vertex(0), an ID beyond n, a local ID — is a legal probe and reports
// absent unless it is a ghost.
type ghostIndex struct {
	ids   []Vertex // the sorted ghost array (LocalGraph.Ghosts) ord points into
	ord   []int32  // ordinal+1 per hash slot, or per global ID when dense; 0 = absent
	shift uint     // 64 − log2(len(ord)); unused when dense
	dense bool
}

// ghostHashMul is 2^64/φ, the multiplier of Fibonacci hashing: the high bits
// of x·ghostHashMul spread consecutive IDs (ghosts cluster in runs) evenly.
const ghostHashMul = 0x9E3779B97F4A7C15

// newGhostIndex builds the index over ghosts, which must be duplicate-free
// (the row-slab builder passes the sorted, deduplicated ghost array).
func newGhostIndex(ghosts []Vertex) ghostIndex {
	logSize := 0 // no ghosts: one permanently empty slot
	if len(ghosts) > 0 {
		logSize = bits.Len(uint(2*len(ghosts) - 1)) // smallest 2^k ≥ 2·|ghosts|
	}
	gi := ghostIndex{
		ids:   ghosts,
		ord:   make([]int32, 1<<logSize),
		shift: uint(64 - logSize),
	}
	mask := len(gi.ord) - 1
	for i, g := range ghosts {
		s := int((g * ghostHashMul) >> gi.shift)
		for gi.ord[s] != 0 {
			s = (s + 1) & mask
		}
		gi.ord[s] = int32(i + 1)
	}
	return gi
}

// find returns the ordinal of ghost x and whether x is a ghost.
func (gi *ghostIndex) find(x Vertex) (int, bool) {
	if gi.dense {
		if x < Vertex(len(gi.ord)) {
			if o := gi.ord[x]; o != 0 {
				return int(o) - 1, true
			}
		}
		return 0, false
	}
	mask := len(gi.ord) - 1
	for s := int((x * ghostHashMul) >> gi.shift); ; s = (s + 1) & mask {
		o := int(gi.ord[s]) - 1
		if o < 0 {
			return 0, false
		}
		if gi.ids[o] == x {
			return o, true
		}
	}
}

// insert returns the ordinal of x, adding it as ordinal len(ids) when it is
// new: ordinals are handed out in first-appearance order. The table doubles
// whenever it would pass half full, so a set grown from newGhostIndex(nil)
// keeps the load factor find relies on. Hash layout only; not safe for
// concurrent use.
func (gi *ghostIndex) insert(x Vertex) int {
	mask := len(gi.ord) - 1
	s := int((x * ghostHashMul) >> gi.shift)
	for ; gi.ord[s] != 0; s = (s + 1) & mask {
		if o := int(gi.ord[s]) - 1; gi.ids[o] == x {
			return o
		}
	}
	gi.ids = append(gi.ids, x)
	if 2*len(gi.ids) > len(gi.ord) {
		*gi = newGhostIndex(gi.ids)
	} else {
		gi.ord[s] = int32(len(gi.ids))
	}
	return len(gi.ids) - 1
}
