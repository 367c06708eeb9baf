package gen

import "repro/internal/graph"

// RoadNetwork builds a w×h grid with a random diagonal added in each cell
// with probability diagP — low uniform degree and very few triangles, the
// profile of the DIMACS usa/europe road networks. Whether a cell gets a
// diagonal, and which, takes one or two draws, so the cells run in order on
// one stream; the grid and diagonal edges go into one list, allocated once
// at its largest size.
func RoadNetwork(w, h int, diagP float64, seed uint64) *graph.Graph {
	edges := gridEdges(w, h, max(w-1, 0)*max(h-1, 0))
	rng := NewRNG(seed)
	id := func(x, y int) uint64 { return uint64(y*w + x) }
	for y := 0; y+1 < h; y++ {
		for x := 0; x+1 < w; x++ {
			if rng.Float64() < diagP {
				if rng.Next()&1 == 0 {
					edges = append(edges, graph.Edge{U: id(x, y), V: id(x+1, y+1)})
				} else {
					edges = append(edges, graph.Edge{U: id(x+1, y), V: id(x, y+1)})
				}
			}
		}
	}
	return graph.FromEdges(w*h, edges)
}
