package gen

import (
	"slices"

	"repro/internal/graph"
)

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
//
// One SplitMix64 stream draws one value per host pair {u, v} (u < v, in
// the order of u, then v), then LongFactor values per vertex. Both runs of
// draws are a fixed count per vertex, so a chunk of vertices jumps ahead
// to its own point of each, runs on the workers and keeps its own edges;
// the chunks join, in chunk order, into one list of the exact size.
func WebGraph(cfg WebConfig) *graph.Graph {
	n, hs, lf := cfg.N, cfg.HostSize, cfg.LongFactor
	// pairsBefore is the number of host-pair draws of the vertices below u:
	// every earlier host is full, and u's host has i = u − base vertices
	// before u, with s − 1 − j pairs drawn for its j-th one.
	pairsBefore := func(u int) uint64 {
		base := u - u%hs
		s, i := uint64(min(hs, n-base)), uint64(u-base)
		full := uint64(hs) * uint64(hs-1) / 2
		return uint64(base/hs)*full + i*(s-1) - i*(i-1)/2
	}
	longStart := pairsBefore(n) // every host-pair draw precedes the long links
	bufs := make([][]graph.Edge, workers())
	chunks := inOrder(n, func(worker, lo, hi int) []graph.Edge {
		edges := bufs[worker][:0]
		// Host near-cliques over contiguous ID ranges (hosts are crawled
		// contiguously, which is exactly why web graphs have ID locality).
		rng := SplitMix64{state: cfg.Seed + pairsBefore(lo)*splitMixGamma}
		for u := lo; u < hi; u++ {
			end := min(u-u%hs+hs, n)
			for v := u + 1; v < end; v++ {
				if rng.Float64() < cfg.IntraP {
					edges = append(edges, graph.Edge{U: uint64(u), V: uint64(v)})
				}
			}
		}
		// Long links: preferential-attachment-flavored via squared-uniform
		// target sampling (biases toward low IDs, i.e. "old" popular hosts).
		rng = SplitMix64{state: cfg.Seed + (longStart+uint64(lo)*uint64(lf))*splitMixGamma}
		for u := lo; u < hi; u++ {
			for k := 0; k < lf; k++ {
				t := rng.Float64()
				v := int(t * t * float64(n))
				if v >= n {
					v = n - 1
				}
				if v != u {
					edges = append(edges, graph.Edge{U: uint64(u), V: uint64(v)})
				}
			}
		}
		bufs[worker] = edges
		return slices.Clone(edges)
	})
	total := 0
	for _, c := range chunks {
		total += len(c)
	}
	edges := make([]graph.Edge, 0, total)
	for _, c := range chunks {
		edges = append(edges, c...)
	}
	return graph.FromEdges(n, edges)
}
