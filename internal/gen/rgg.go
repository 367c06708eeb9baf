package gen

import (
	"math"

	"repro/internal/graph"
)

// RGG2D generates a 2D random geometric graph: n points uniform in the unit
// square, an edge between points at Euclidean distance < r. The radius is
// chosen so that the expected number of edges is edgeFactor*n, matching the
// paper's weak-scaling inputs (edgeFactor 16). Neighbor search uses a grid of
// cells of side r, so generation is O(n + m) in expectation. Each vertex's
// scan is independent: chunks of vertices scan on the workers, and each
// vertex's neighbours above it, which its scan meets in ascending order,
// are its run for graph.FromRuns.
//
// Because vertex IDs are assigned in row-major cell order, nearby IDs are
// geometrically close: a contiguous 1D partition has small cuts. RGG is the
// paper's high-locality family, where CETRIC's contraction shines.
func RGG2D(n, edgeFactor int, seed uint64) *graph.Graph {
	if n == 0 {
		return graph.FromEdges(0, nil)
	}
	// E[m] = C(n,2) * pi r^2 (ignoring boundary effects)  =>  r.
	r := math.Sqrt(2 * float64(edgeFactor) / (math.Pi * float64(n-1)))
	if r > 1 {
		r = 1
	}
	cells := int(1 / r)
	if cells < 1 {
		cells = 1
	}
	cell := 1.0 / float64(cells)

	// Deterministic point per vertex index via stateless hashing.
	xs := make([]float64, n)
	ys := make([]float64, n)
	graph.ParallelFor(workers(), n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			xs[i] = HashFloat64(seed, uint64(2*i))
			ys[i] = HashFloat64(seed, uint64(2*i+1))
		}
	})
	// Sort vertices into cells; relabel IDs in cell (row-major) order so that
	// the ID space has geometric locality, as KAGEN's distributed generator
	// produces naturally.
	cellOf := func(x, y float64) int {
		cx := int(x / cell)
		cy := int(y / cell)
		if cx >= cells {
			cx = cells - 1
		}
		if cy >= cells {
			cy = cells - 1
		}
		return cy*cells + cx
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	keys := make([]int, n)
	for i := 0; i < n; i++ {
		keys[i] = cellOf(xs[i], ys[i])
	}
	sortByKey(order, keys)
	px := make([]float64, n)
	py := make([]float64, n)
	for newID, oldID := range order {
		px[newID] = xs[oldID]
		py[newID] = ys[oldID]
	}
	// Bucket boundaries per cell in the relabeled order.
	bucketStart := make([]int, cells*cells+1)
	for i := 0; i < n; i++ {
		bucketStart[cellOf(px[i], py[i])+1]++
	}
	for c := 1; c <= cells*cells; c++ {
		bucketStart[c] += bucketStart[c-1]
	}

	r2 := r * r
	scan := func(u int, nbrs []graph.Vertex) []graph.Vertex {
		cx := int(px[u] / cell)
		cy := int(py[u] / cell)
		if cx >= cells {
			cx = cells - 1
		}
		if cy >= cells {
			cy = cells - 1
		}
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				nx, ny := cx+dx, cy+dy
				if nx < 0 || ny < 0 || nx >= cells || ny >= cells {
					continue
				}
				c := ny*cells + nx
				for v := bucketStart[c]; v < bucketStart[c+1]; v++ {
					if v <= u {
						continue
					}
					ddx := px[u] - px[v]
					ddy := py[u] - py[v]
					if ddx*ddx+ddy*ddy < r2 {
						nbrs = append(nbrs, graph.Vertex(v))
					}
				}
			}
		}
		return nbrs
	}
	return scanVertices(n, func(int) func(int, []graph.Vertex) []graph.Vertex { return scan })
}

// sortByKey stably sorts order by keys (counting sort on small key ranges,
// fallback comparison sort otherwise).
func sortByKey(order []int, keys []int) {
	maxKey := 0
	for _, k := range keys {
		if k > maxKey {
			maxKey = k
		}
	}
	cnt := make([]int, maxKey+2)
	for _, k := range keys {
		cnt[k+1]++
	}
	for i := 1; i < len(cnt); i++ {
		cnt[i] += cnt[i-1]
	}
	out := make([]int, len(order))
	for _, id := range order {
		out[cnt[keys[id]]] = id
		cnt[keys[id]]++
	}
	copy(order, out)
}
