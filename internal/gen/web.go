package gen

import "repro/internal/graph"

// WebConfig parameterizes the clustered web model: vertices are grouped into
// "hosts"; pages within a host link densely (near-cliques, the source of the
// enormous triangle counts of crawl graphs), and each page gets a few
// R-MAT-skewed long-distance links.
type WebConfig struct {
	N          int
	HostSize   int
	IntraP     float64 // intra-host edge probability
	LongFactor int     // long-range edges per vertex
	Seed       uint64
}

// WebGraph builds the clustered web stand-in.
func WebGraph(cfg WebConfig) *graph.Graph {
	rng := NewRNG(cfg.Seed)
	var edges []graph.Edge
	// Host near-cliques over contiguous ID ranges (hosts are crawled
	// contiguously, which is exactly why web graphs have ID locality).
	for base := 0; base < cfg.N; base += cfg.HostSize {
		end := base + cfg.HostSize
		if end > cfg.N {
			end = cfg.N
		}
		for u := base; u < end; u++ {
			for v := u + 1; v < end; v++ {
				if rng.Float64() < cfg.IntraP {
					edges = append(edges, graph.Edge{U: uint64(u), V: uint64(v)})
				}
			}
		}
	}
	// Long links: preferential-attachment-flavored via squared-uniform target
	// sampling (biases toward low IDs, i.e. "old" popular hosts).
	for u := 0; u < cfg.N; u++ {
		for k := 0; k < cfg.LongFactor; k++ {
			t := rng.Float64()
			v := int(t * t * float64(cfg.N))
			if v >= cfg.N {
				v = cfg.N - 1
			}
			if v != u {
				edges = append(edges, graph.Edge{U: uint64(u), V: uint64(v)})
			}
		}
	}
	return graph.FromEdges(cfg.N, edges)
}
