package gen

import (
	"math/bits"

	"repro/internal/graph"
)

// GNM samples a graph uniformly from the G(n,m) Erdős–Rényi model: m
// distinct undirected edges chosen uniformly at random, no self-loops. These
// graphs have no locality at all, which is the regime where the paper's
// contraction (CETRIC) does not pay off.
func GNM(n, m int, seed uint64) *graph.Graph {
	if n < 2 {
		return graph.FromEdges(n, nil)
	}
	maxEdges := uint64(n) * uint64(n-1) / 2
	if uint64(m) > maxEdges {
		m = int(maxEdges)
	}
	rng := NewRNG(seed)
	seen := newKeySet(m)
	edges := make([]graph.Edge, 0, m)
	for len(edges) < m {
		u := rng.Uint64n(uint64(n))
		v := rng.Uint64n(uint64(n))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if !seen.add(u*uint64(n) + v) {
			continue
		}
		edges = append(edges, graph.Edge{U: u, V: v})
	}
	return graph.FromEdges(n, edges)
}

// keySet is a set of nonzero keys in a flat open-addressing table with
// linear probing, sized for its capacity at load ≤ 1/2. G(n,m)'s keys
// u·n+v with u < v are never 0, which marks a free slot.
type keySet struct {
	slots []uint64
	shift uint
}

func newKeySet(capacity int) keySet {
	b := bits.Len64(2*uint64(max(capacity, 1)) - 1)
	return keySet{slots: make([]uint64, 1<<b), shift: uint(64 - b)}
}

// add inserts key and reports whether it was absent.
func (s *keySet) add(key uint64) bool {
	mask := uint64(len(s.slots) - 1)
	for i := key * splitMixGamma >> s.shift; ; i = (i + 1) & mask {
		switch s.slots[i] {
		case key:
			return false
		case 0:
			s.slots[i] = key
			return true
		}
	}
}
