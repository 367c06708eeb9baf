package core

import "repro/internal/graph"

// Local clustering coefficients (§IV-E): LCC(v) = 2Δ(v)/(d(v)(d(v)−1)),
// where Δ(v) counts the triangles incident to v. The distributed algorithms
// produce Δ via per-row accumulation plus a ghost aggregation exchange; the
// helpers here convert Δ to LCC.

// LCCFromDeltas converts per-vertex triangle counts — exact, or estimated
// by an approximate run — to local clustering coefficients; vertices of
// degree < 2 get 0.
func LCCFromDeltas[T uint64 | float64](g *graph.Graph, deltas []T) []float64 {
	lcc := make([]float64, g.NumVertices())
	for v := range lcc {
		d := g.Degree(graph.Vertex(v))
		if d >= 2 {
			lcc[v] = 2 * float64(deltas[v]) / (float64(d) * float64(d-1))
		}
	}
	return lcc
}

// SeqLCC returns the exact local clustering coefficient of every vertex,
// computed sequentially.
func SeqLCC(g *graph.Graph) []float64 {
	_, deltas := SeqDeltas(g)
	return LCCFromDeltas(g, deltas)
}
