package core

import (
	"repro/internal/graph"
)

// Triangle enumeration (§IV-E: "since each triangle is found exactly once,
// this can be easily generalized to the case of triangle enumeration").

// TriangleFunc receives one triangle; corners are ordered ascending by
// vertex ID. In distributed enumeration it is invoked concurrently from
// multiple PE goroutines and must be safe for concurrent use.
type TriangleFunc func(a, b, c graph.Vertex)

// EnumerateDist enumerates every triangle exactly once with a distributed
// algorithm; fn runs on the PE that finds the triangle. Only DITRIC/CETRIC
// variants support enumeration.
func EnumerateDist(algo Algorithm, g *graph.Graph, cfg Config, fn TriangleFunc) (*Result, error) {
	cfg.Collect = true
	res, err := Run(algo, g, cfg)
	if err != nil {
		return nil, err
	}
	for _, tri := range res.Triangles {
		fn(tri[0], tri[1], tri[2])
	}
	return res, nil
}
