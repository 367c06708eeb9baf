package gen

import "repro/internal/graph"

// Deterministic graphs with closed-form triangle counts, used by the test
// suite to pin absolute results.

// Complete returns K_n, which has C(n,3) triangles.
func Complete(n int) *graph.Graph {
	var edges []graph.Edge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			edges = append(edges, graph.Edge{U: uint64(u), V: uint64(v)})
		}
	}
	return graph.FromEdges(n, edges)
}

// CompleteBipartite returns K_{a,b}, which is triangle-free.
func CompleteBipartite(a, b int) *graph.Graph {
	var edges []graph.Edge
	for u := 0; u < a; u++ {
		for v := 0; v < b; v++ {
			edges = append(edges, graph.Edge{U: uint64(u), V: uint64(a + v)})
		}
	}
	return graph.FromEdges(a+b, edges)
}

// Friendship returns the friendship (windmill) graph F_k: k triangles sharing
// one hub vertex — exactly k triangles, and the hub's LCC is 1/(2k−1).
func Friendship(k int) *graph.Graph {
	var edges []graph.Edge
	for i := 0; i < k; i++ {
		a := uint64(1 + 2*i)
		b := uint64(2 + 2*i)
		edges = append(edges, graph.Edge{U: 0, V: a}, graph.Edge{U: 0, V: b}, graph.Edge{U: a, V: b})
	}
	return graph.FromEdges(2*k+1, edges)
}

// Grid2D returns a w×h grid graph (triangle-free).
func Grid2D(w, h int) *graph.Graph {
	id := func(x, y int) uint64 { return uint64(y*w + x) }
	var edges []graph.Edge
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				edges = append(edges, graph.Edge{U: id(x, y), V: id(x+1, y)})
			}
			if y+1 < h {
				edges = append(edges, graph.Edge{U: id(x, y), V: id(x, y+1)})
			}
		}
	}
	return graph.FromEdges(w*h, edges)
}

// TriangularGrid returns a w×h grid with one diagonal per cell, giving
// exactly 2·(w−1)·(h−1) triangles.
func TriangularGrid(w, h int) *graph.Graph {
	g := Grid2D(w, h)
	edges := g.Edges()
	id := func(x, y int) uint64 { return uint64(y*w + x) }
	for y := 0; y+1 < h; y++ {
		for x := 0; x+1 < w; x++ {
			edges = append(edges, graph.Edge{U: id(x, y), V: id(x+1, y+1)})
		}
	}
	return graph.FromEdges(w*h, edges)
}

// CliqueChain returns k cliques of size s, consecutive cliques joined by a
// single bridge edge: exactly k·C(s,3) triangles and high locality.
func CliqueChain(k, s int) *graph.Graph {
	var edges []graph.Edge
	for c := 0; c < k; c++ {
		base := c * s
		for u := 0; u < s; u++ {
			for v := u + 1; v < s; v++ {
				edges = append(edges, graph.Edge{U: uint64(base + u), V: uint64(base + v)})
			}
		}
		if c+1 < k {
			edges = append(edges, graph.Edge{U: uint64(base + s - 1), V: uint64(base + s)})
		}
	}
	return graph.FromEdges(k*s, edges)
}
