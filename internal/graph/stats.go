package graph

// Stats summarizes an instance the way Table I of the paper does.
type Stats struct {
	N         int // vertices
	M         int // undirected edges
	MaxDegree int
	Wedges    uint64 // Σ_v C(d⁺(v),2) on the degree-oriented graph
	AvgDegree float64
}

// ComputeStats gathers instance statistics (triangles are counted by the
// algorithms in internal/core, not here, to avoid an import cycle).
func ComputeStats(g *Graph) Stats {
	o := Orient(g)
	s := Stats{
		N:         g.NumVertices(),
		M:         g.NumEdges(),
		MaxDegree: g.MaxDegree(),
		Wedges:    o.Wedges(),
	}
	if s.N > 0 {
		s.AvgDegree = 2 * float64(s.M) / float64(s.N)
	}
	return s
}
