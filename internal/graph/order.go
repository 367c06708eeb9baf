package graph

import "runtime"

// The degree-based total order ≺ from COMPACT-FORWARD (Latapy):
//
//	u ≺ v  ⇔  d(u) < d(v), or d(u) == d(v) and u < v.
//
// Orienting every edge from its ≺-smaller to its ≺-larger endpoint makes the
// out-degree of high-degree vertices small and lets EDGE ITERATOR count every
// triangle exactly once.
//
// ≺ has one formula, precedes, in 0/1 form. Every pass that filters
// adjacency by ≺ (Orient, the 1D orientations, BuildBlockCSR) keeps entries
// by arithmetic with it: each candidate is written unconditionally and the
// write cursor advances by precedes. Whenever degrees are close, u ≺ v is a
// coin flip, and as a branch it would mispredict about every other entry.

// precedes is u ≺ v given their degrees, as 1 or 0.
func precedes(du int, u Vertex, dv int, v Vertex) uint64 {
	return b2u(du < dv) | (b2u(du == dv) & b2u(u < v))
}

// b2u converts a comparison result to 0/1; the compiler lowers this to a
// flag-set instruction, so precedes and the passes built on it carry no
// data-dependent branch.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// OutGraph is a degree-oriented view of an undirected graph: Out(v) holds the
// outgoing neighborhood N⁺(v) = {u : v ≺ u}, sorted ascending by vertex ID.
// It is the sequential oracle's orientation (core.SeqCount) and the one
// Stats reports wedges on; the distributed engines orient their local views
// with LocalOriented instead.
type OutGraph struct {
	off []int64
	out []Vertex
}

// Orient builds the COMPACT-FORWARD orientation of g on
// runtime.GOMAXPROCS(0) workers. A count pass sizes every row, a sequential
// prefix sum lays the rows out, and a placement pass writes every neighbour
// and advances by precedes. A row stops once its kept prefix is full, so no
// write lands past its own row, where another worker may be placing the
// next one. It allocates only the two arrays it returns, the same at any
// worker count.
func Orient(g *Graph) *OutGraph {
	return orient(runtime.GOMAXPROCS(0), g)
}

func orient(threads int, g *Graph) *OutGraph {
	n := g.NumVertices()
	off := make([]int64, n+1)
	ParallelFor(threads, n, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			dv := g.Degree(Vertex(v))
			cnt := uint64(0)
			for _, u := range g.Neighbors(Vertex(v)) {
				cnt += precedes(dv, Vertex(v), g.Degree(u), u)
			}
			off[v+1] = int64(cnt)
		}
	})
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	out := make([]Vertex, off[n])
	ParallelFor(threads, n, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			dv := g.Degree(Vertex(v))
			w, end := off[v], off[v+1]
			for _, u := range g.Neighbors(Vertex(v)) {
				if w == end {
					break
				}
				out[w] = u
				w += int64(precedes(dv, Vertex(v), g.Degree(u), u))
			}
		}
	})
	return &OutGraph{off: off, out: out}
}

// NumVertices returns n.
func (o *OutGraph) NumVertices() int { return len(o.off) - 1 }

// Out returns N⁺(v), sorted ascending. The slice aliases internal storage.
func (o *OutGraph) Out(v Vertex) []Vertex { return o.out[o.off[v]:o.off[v+1]] }

// OutDegree returns |N⁺(v)|.
func (o *OutGraph) OutDegree(v Vertex) int { return int(o.off[v+1] - o.off[v]) }

// Wedges returns the number of ordered open wedges Σ_v C(d⁺(v), 2) on the
// oriented graph — the quantity reported in Table I of the paper.
func (o *OutGraph) Wedges() uint64 {
	var total uint64
	for v := 0; v < o.NumVertices(); v++ {
		d := uint64(o.OutDegree(Vertex(v)))
		total += d * (d - 1) / 2
	}
	return total
}
