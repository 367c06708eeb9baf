// Package part implements the 1D vertex partitioning the paper assumes: each
// PE owns a contiguous range of vertex IDs, ranges are ordered by rank, and
// every vertex belongs to exactly one PE. Runs use the uniform split; New
// builds arbitrary monotone ranges. It also provides the 2D block grid of the
// TK2D backend.
package part

import (
	"fmt"
)

// Partition describes a 1D partition of vertices 0..n-1 over p PEs into
// contiguous, globally ordered ranges. starts has length p+1 with
// starts[0] == 0 and starts[p] == n; PE i owns [starts[i], starts[i+1]).
type Partition struct {
	starts []uint64
}

// New builds a partition from range boundaries. It validates monotonicity.
func New(starts []uint64) (*Partition, error) {
	if len(starts) < 2 {
		return nil, fmt.Errorf("part: need at least one range, got %d boundaries", len(starts))
	}
	if starts[0] != 0 {
		return nil, fmt.Errorf("part: first boundary must be 0, got %d", starts[0])
	}
	for i := 1; i < len(starts); i++ {
		if starts[i] < starts[i-1] {
			return nil, fmt.Errorf("part: boundaries not monotone at %d: %d < %d", i, starts[i], starts[i-1])
		}
	}
	return &Partition{starts: starts}, nil
}

// Uniform splits n vertices over p PEs as evenly as possible (the first
// n mod p PEs get one extra vertex).
func Uniform(n uint64, p int) *Partition {
	starts := make([]uint64, p+1)
	q, r := n/uint64(p), n%uint64(p)
	for i := 0; i < p; i++ {
		starts[i+1] = starts[i] + q
		if uint64(i) < r {
			starts[i+1]++
		}
	}
	return &Partition{starts: starts}
}

// P returns the number of PEs.
func (pt *Partition) P() int { return len(pt.starts) - 1 }

// N returns the total number of vertices.
func (pt *Partition) N() uint64 { return pt.starts[len(pt.starts)-1] }

// Range returns the vertex range [lo, hi) owned by PE i.
func (pt *Partition) Range(i int) (lo, hi uint64) { return pt.starts[i], pt.starts[i+1] }

// Size returns the number of vertices owned by PE i.
func (pt *Partition) Size(i int) int { return int(pt.starts[i+1] - pt.starts[i]) }

// Rank returns the PE owning vertex v. Because ranges are contiguous and
// ordered, this is a binary search over the boundaries — hand-rolled rather
// than sort.Search, since the scatter pass calls it twice per edge and the
// closure indirection is measurable there.
func (pt *Partition) Rank(v uint64) int {
	// Find the first boundary index i in [1, p] with starts[i] > v; the
	// owner is i-1. Out-of-range vertices panic (the binary search would
	// otherwise silently clamp them to the last PE).
	s := pt.starts
	if v >= s[len(s)-1] {
		panic(fmt.Sprintf("part: vertex %d out of range n=%d", v, s[len(s)-1]))
	}
	lo, hi := 1, len(s)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}
