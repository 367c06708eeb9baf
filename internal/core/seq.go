package core

import (
	"slices"

	"repro/internal/graph"
)

// Sequential algorithms: the EDGE ITERATOR / COMPACT-FORWARD base
// (Algorithm 1) that every distributed variant builds on, and a naive
// wedge-checking counter used as an independent oracle in tests.

// SeqCount counts triangles with the sequential EDGE ITERATOR on the
// degree-oriented graph (COMPACT-FORWARD): for every v, N⁺(v) is marked in
// a flag per vertex, each N⁺(u) with u ∈ N⁺(v) is scanned for marked
// members, and the marks are cleared again, so T = Σ_{(v,u)} |N⁺(v) ∩ N⁺(u)|.
// It shares no kernel with the distributed engines it checks.
func SeqCount(g *graph.Graph) uint64 {
	o := graph.Orient(g)
	mark := make([]bool, g.NumVertices())
	var count uint64
	for v := 0; v < g.NumVertices(); v++ {
		nv := o.Out(graph.Vertex(v))
		for _, u := range nv {
			mark[u] = true
		}
		for _, u := range nv {
			for _, w := range o.Out(u) {
				if mark[w] {
					count++
				}
			}
		}
		for _, u := range nv {
			mark[u] = false
		}
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
// with a callback per closed wedge. The corner order within a call follows
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
