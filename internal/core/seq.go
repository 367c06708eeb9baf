package core

import (
	"runtime"
	"slices"

	"repro/internal/graph"
)

// Sequential algorithms: the EDGE ITERATOR / COMPACT-FORWARD base
// (Algorithm 1) that every distributed variant builds on, and a naive
// wedge-checking counter used as an independent oracle in tests.

// SeqCount counts triangles with the sequential EDGE ITERATOR on the
// degree-oriented graph (COMPACT-FORWARD): for every v, N⁺(v) is marked in
// a byte per vertex, each N⁺(u) with u ∈ N⁺(v) is scanned for marked
// members, and the marks are cleared again, so T = Σ_{(v,u)} |N⁺(v) ∩ N⁺(u)|.
// The vertices are split over runtime.GOMAXPROCS(0) workers, each with its
// own n-byte mark and sum, and the sums are added at the end: beyond
// graph.Orient's arrays it allocates one n-byte mark per worker. It shares
// no kernel with the distributed engines it checks.
func SeqCount(g *graph.Graph) uint64 {
	return seqCount(runtime.GOMAXPROCS(0), g)
}

func seqCount(threads int, g *graph.Graph) uint64 {
	o := graph.Orient(g)
	n := g.NumVertices()
	marks := make([][]byte, max(threads, 1))
	sums := make([]uint64, len(marks))
	graph.ParallelFor(threads, n, func(worker, lo, hi int) {
		if marks[worker] == nil {
			marks[worker] = make([]byte, n)
		}
		mark := marks[worker]
		var count uint64
		for v := lo; v < hi; v++ {
			nv := o.Out(graph.Vertex(v))
			for _, u := range nv {
				mark[u] = 1
			}
			for _, u := range nv {
				for _, w := range o.Out(u) {
					count += uint64(mark[w])
				}
			}
			for _, u := range nv {
				mark[u] = 0
			}
		}
		sums[worker] += count
	})
	var count uint64
	for _, s := range sums {
		count += s
	}
	return count
}

// SeqDeltas counts triangles and the per-vertex incidence counts Δ(v); every
// triangle increments Δ of all three corners.
func SeqDeltas(g *graph.Graph) (uint64, []uint64) {
	deltas := make([]uint64, g.NumVertices())
	var count uint64
	SeqEnumerate(g, func(v, u, w graph.Vertex) {
		count++
		deltas[v]++
		deltas[u]++
		deltas[w]++
	})
	return count, deltas
}

// SeqEnumerate calls fn for every triangle exactly once: SeqCount's loop
// with a callback per closed wedge, on one core, so that the callbacks come
// in vertex order. The corner order within a call follows
// the degree orientation (v ≺ u ≺ w).
func SeqEnumerate(g *graph.Graph, fn func(v, u, w graph.Vertex)) {
	o := graph.Orient(g)
	mark := make([]bool, g.NumVertices())
	for v := 0; v < g.NumVertices(); v++ {
		nv := o.Out(graph.Vertex(v))
		for _, u := range nv {
			mark[u] = true
		}
		for _, u := range nv {
			for _, w := range o.Out(u) {
				if mark[w] {
					fn(graph.Vertex(v), u, w)
				}
			}
		}
		for _, u := range nv {
			mark[u] = false
		}
	}
}

// NaiveCount counts triangles by checking the closing edge of every open
// wedge — the textbook O(Σ_v d(v)²·log d) oracle, independent of the
// orientation machinery, used to cross-validate everything else.
func NaiveCount(g *graph.Graph) uint64 {
	var count uint64
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		nv := g.Neighbors(graph.Vertex(v))
		for i, u := range nv {
			for _, w := range nv[i+1:] {
				if g.HasEdge(u, w) {
					count++
				}
			}
		}
	}
	return count / 3 // every triangle seen from each of its three corners
}

// CanonTriangle orders a triangle's corners ascending by vertex ID — the
// canonical form for comparing, collecting, and enumerating triangles (also
// used by the public tricount.Enumerate).
func CanonTriangle(a, b, c graph.Vertex) [3]graph.Vertex {
	t := [3]graph.Vertex{a, b, c}
	slices.Sort(t[:])
	return t
}
