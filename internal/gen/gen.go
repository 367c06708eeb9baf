package gen

import (
	"fmt"

	"repro/internal/graph"
)

// ByFamily builds a synthetic graph from one of the paper's weak-scaling
// families by name: "gnm", "rmat", "rgg2d", "rhg". n is the number of
// vertices; edgeFactor the target m/n ratio (the paper uses 16). Negative
// sizes are an error; edge factor 0 gives the edgeless graph.
func ByFamily(family string, n, edgeFactor int, seed uint64) (*graph.Graph, error) {
	if n < 0 || edgeFactor < 0 {
		return nil, fmt.Errorf("gen: %s needs n ≥ 0 and edge factor ≥ 0, got n=%d, edge factor %d", family, n, edgeFactor)
	}
	switch family {
	case "gnm":
		return GNM(n, edgeFactor*n, seed), nil
	case "rmat":
		scale := 0
		for 1<<scale < n {
			scale++
		}
		cfg := DefaultRMAT(scale, seed)
		cfg.EdgeFactor = edgeFactor
		return RMAT(cfg), nil
	case "rgg2d":
		return RGG2D(n, edgeFactor, seed), nil
	case "rhg":
		return RHG(RHGConfig{N: n, AvgDegree: 2 * float64(edgeFactor), Gamma: 2.8, Seed: seed}), nil
	default:
		return nil, fmt.Errorf("gen: unknown family %q (want gnm|rmat|rgg2d|rhg)", family)
	}
}
