package gen

import "repro/internal/graph"

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
	seen := make(map[uint64]struct{}, m)
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
		key := u*uint64(n) + v
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		edges = append(edges, graph.Edge{U: u, V: v})
	}
	return graph.FromEdges(n, edges)
}
