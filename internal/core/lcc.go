package core

import (
	"math"

	"repro/internal/graph"
)

// Local clustering coefficients (§IV-E): LCC(v) = 2Δ(v)/(d(v)(d(v)−1)),
// where Δ(v) counts the triangles incident to v. The distributed algorithms
// produce Δ via per-row accumulation plus a ghost aggregation exchange; the
// helpers here convert, summarize and compare LCC vectors — the analysis
// layer applications like web-spam detection (Becchetti et al.) build on.

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

// GlobalClusteringCoefficient returns 3·triangles/wedges (transitivity),
// with wedges counted on the undirected graph: Σ_v C(d(v),2).
func GlobalClusteringCoefficient(g *graph.Graph, triangles uint64) float64 {
	var wedges float64
	for v := 0; v < g.NumVertices(); v++ {
		d := float64(g.Degree(graph.Vertex(v)))
		wedges += d * (d - 1) / 2
	}
	if wedges == 0 {
		return 0
	}
	return 3 * float64(triangles) / wedges
}

// AverageLCC returns the mean local clustering coefficient (the
// Watts–Strogatz clustering coefficient).
func AverageLCC(lcc []float64) float64 {
	if len(lcc) == 0 {
		return 0
	}
	var sum float64
	for _, v := range lcc {
		sum += v
	}
	return sum / float64(len(lcc))
}

// LCCHistogram buckets an LCC vector into bins equal-width bins over [0,1].
// Analyzing this distribution is the spam-detection application from the
// paper's introduction.
func LCCHistogram(lcc []float64, bins int) []int {
	h := make([]int, bins)
	for _, v := range lcc {
		b := int(v * float64(bins))
		if b >= bins {
			b = bins - 1
		}
		if b < 0 {
			b = 0
		}
		h[b]++
	}
	return h
}

// LCCMaxAbsError returns the largest |a[i]−b[i]| between two LCC vectors
// (used to validate approximate LCC against exact).
func LCCMaxAbsError(a, b []float64) float64 {
	var worst float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// LCCMeanAbsError returns the mean |a[i]−b[i]|.
func LCCMeanAbsError(a, b []float64) float64 {
	if len(a) == 0 {
		return 0
	}
	var sum float64
	for i := range a {
		sum += math.Abs(a[i] - b[i])
	}
	return sum / float64(len(a))
}
