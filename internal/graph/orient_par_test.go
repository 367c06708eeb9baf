package graph_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/leakcheck"
	"repro/internal/testgraph"
)

// seqOrient is Orient on one core with the branch-free placement that
// writes past its row: a rejected neighbour after a row's last kept one
// lands on the next row's first slot, which that row then overwrites, and
// out has one slot of slack for the last row. On concurrent workers that
// write would race with the worker placing the next row; here it is the
// byte-identity oracle for the parallel passes.
func seqOrient(g *graph.Graph) (off []int64, out []graph.Vertex) {
	n := g.NumVertices()
	keep := func(dv int, v, u graph.Vertex) int64 {
		if graph.Less(dv, v, g.Degree(u), u) {
			return 1
		}
		return 0
	}
	off = make([]int64, n+1)
	for v := 0; v < n; v++ {
		var cnt int64
		for _, u := range g.Neighbors(graph.Vertex(v)) {
			cnt += keep(g.Degree(graph.Vertex(v)), graph.Vertex(v), u)
		}
		off[v+1] = off[v] + cnt
	}
	out = make([]graph.Vertex, off[n]+1)
	for v := 0; v < n; v++ {
		w := off[v]
		for _, u := range g.Neighbors(graph.Vertex(v)) {
			out[w] = u
			w += keep(g.Degree(graph.Vertex(v)), graph.Vertex(v), u)
		}
	}
	return off, out[:off[n]]
}

// orientInputs are the 12 fixtures and one graph per generator family at
// 4096 vertices or more: several of ParallelFor's chunks each, so that
// under -race the workers of a pass really run side by side.
func orientInputs() []testgraph.Input {
	var in []testgraph.Input
	for _, fix := range testgraph.All {
		in = append(in, testgraph.Input{Name: fix.Name, Build: fix.Build})
	}
	return append(in, testgraph.Sized(4096)...)
}

// TestOrientAndEdgesAnyWorkers checks the parallel passes at 1, 2, 3 and 8
// workers: Orient's offsets and entries equal the sequential oracle's, and
// Edges lists the edges in ForEachEdge's order.
func TestOrientAndEdgesAnyWorkers(t *testing.T) {
	leakcheck.Check(t)
	for _, in := range orientInputs() {
		g := in.Build()
		wantOff, wantOut := seqOrient(g)
		var wantEdges []graph.Edge
		g.ForEachEdge(func(u, v graph.Vertex) { wantEdges = append(wantEdges, graph.Edge{U: u, V: v}) })
		for _, th := range []int{1, 2, 3, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", in.Name, th), func(t *testing.T) {
				off, out := graph.OrientThreads(th, g).Arrays()
				if !slices.Equal(off, wantOff) || !slices.Equal(out, wantOut) {
					t.Errorf("Orient differs from the sequential oracle")
				}
				if !slices.Equal(graph.EdgesThreads(th, g), wantEdges) {
					t.Errorf("Edges differs from ForEachEdge's order")
				}
			})
		}
	}
}

// BenchmarkOrient orients the benchmark rows' graphs at their sizes, each
// built before the timer starts.
func BenchmarkOrient(b *testing.B) {
	for _, in := range testgraph.Bench {
		b.Run(in.Name, func(b *testing.B) {
			g := in.Build()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				graph.Orient(g)
			}
		})
	}
}
