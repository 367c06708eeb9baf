// Package graph provides undirected graphs in adjacency-array (CSR) form,
// the degree-based total order used by COMPACT-FORWARD style triangle
// counting, and the per-PE local graph view (locals, ghosts, interface
// vertices, cut edges) used by the distributed algorithms.
//
// Vertices are dense integers 0..n-1. Neighborhoods are stored sorted by
// vertex ID so that set intersections can use a merge, exactly as the paper
// assumes.
package graph

import (
	"runtime"
	"slices"
)

// Vertex is a global vertex identifier. It is an alias (not a defined type)
// so that neighborhood slices can be sent as message payloads of machine
// words without copying.
type Vertex = uint64

// Edge is an undirected edge. Canonical form has U < V.
type Edge struct {
	U, V Vertex
}

// Canon returns e with endpoints ordered so that U < V.
func (e Edge) Canon() Edge {
	if e.U > e.V {
		return Edge{e.V, e.U}
	}
	return e
}

// Graph is an immutable undirected graph in compressed adjacency-array form.
// Every edge {u,v} appears in both Neighbors(u) and Neighbors(v), and each
// neighborhood is sorted strictly ascending by vertex ID, without v itself
// and without IDs ≥ n. FromEdges, FromEdgeChunks and FromRuns establish
// all of that (FromRuns panics on a run that would break it); a caller of
// FromSortedAdjacency vouches for it. The distributed builders read a PE's
// rows in place and re-check what one PE can see of them (BuildLocalCSR and
// BuildBlockCSR panic on a row that is out of order, holds a self-loop or
// names an ID ≥ n). Symmetry is the one invariant that cannot be checked
// locally — the mirror entry lives in another PE's rows — so an asymmetric
// CSR is counted as given, without an error.
type Graph struct {
	off []int64
	adj []Vertex
}

// NumVertices returns n.
func (g *Graph) NumVertices() int { return len(g.off) - 1 }

// NumEdges returns the number of undirected edges m.
func (g *Graph) NumEdges() int { return len(g.adj) / 2 }

// Degree returns the degree of v.
func (g *Graph) Degree(v Vertex) int { return int(g.off[v+1] - g.off[v]) }

// Neighbors returns the sorted neighborhood of v. The returned slice aliases
// internal storage and must not be modified.
func (g *Graph) Neighbors(v Vertex) []Vertex { return g.adj[g.off[v]:g.off[v+1]] }

// HasEdge reports whether {u,v} is an edge, by binary search in the smaller
// neighborhood.
func (g *Graph) HasEdge(u, v Vertex) bool {
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	_, ok := slices.BinarySearch(g.Neighbors(u), v)
	return ok
}

// ForEachEdge calls fn once per undirected edge with u < v.
func (g *Graph) ForEachEdge(fn func(u, v Vertex)) {
	for u := Vertex(0); u < Vertex(g.NumVertices()); u++ {
		for _, v := range g.Neighbors(u) {
			if v > u {
				fn(u, v)
			}
		}
	}
}

// Edges returns all undirected edges in canonical (u < v) order, the order
// ForEachEdge calls them in, built on runtime.GOMAXPROCS(0) workers: one
// binary search per row finds its entries above u (rows are sorted), a
// prefix sum places the rows, and each row's suffix is written into its
// stretch of the list. Beyond the m-edge list it allocates n+1 row offsets.
func (g *Graph) Edges() []Edge {
	return g.edges(runtime.GOMAXPROCS(0))
}

func (g *Graph) edges(threads int) []Edge {
	n := g.NumVertices()
	pos := make([]int, n+1)
	ParallelFor(threads, n, func(_, lo, hi int) {
		for u := lo; u < hi; u++ {
			nb := g.Neighbors(Vertex(u))
			i, _ := slices.BinarySearch(nb, Vertex(u)+1)
			pos[u+1] = len(nb) - i
		}
	})
	for u := 0; u < n; u++ {
		pos[u+1] += pos[u]
	}
	es := make([]Edge, pos[n])
	ParallelFor(threads, n, func(_, lo, hi int) {
		for u := lo; u < hi; u++ {
			nb := g.Neighbors(Vertex(u))
			row := es[pos[u]:pos[u+1]]
			for i, v := range nb[len(nb)-len(row):] {
				row[i] = Edge{Vertex(u), v}
			}
		}
	})
	return es
}

// FromSortedAdjacency builds a graph directly from prebuilt CSR arrays.
// The caller guarantees the invariants of Graph; symmetry above all.
func FromSortedAdjacency(off []int64, adj []Vertex) *Graph {
	return &Graph{off: off, adj: adj}
}

// MaxDegree returns the maximum vertex degree (0 for an empty graph).
func (g *Graph) MaxDegree() int {
	best := 0
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.Degree(Vertex(v)); d > best {
			best = d
		}
	}
	return best
}
