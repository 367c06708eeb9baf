package graph_test

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/testgraph"
)

// upperRuns cuts g into the input of FromRuns: each vertex's neighbours
// above it, in chunks of chunk vertices.
func upperRuns(g *graph.Graph, chunk int) (runLen []int, runs [][]graph.Vertex) {
	n := g.NumVertices()
	runLen = make([]int, n)
	runs = make([][]graph.Vertex, (n+chunk-1)/chunk)
	for u := 0; u < n; u++ {
		nb := g.Neighbors(graph.Vertex(u))
		i := 0
		for i < len(nb) && nb[i] <= graph.Vertex(u) {
			i++
		}
		runLen[u] = len(nb) - i
		runs[u/chunk] = append(runs[u/chunk], nb[i:]...)
	}
	return runLen, runs
}

// sameCSR reports where got and want differ, or "".
func sameCSR(got, want *graph.Graph) string {
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() {
		return fmt.Sprintf("n=%d m=%d, want n=%d m=%d", got.NumVertices(), got.NumEdges(), want.NumVertices(), want.NumEdges())
	}
	for v := 0; v < want.NumVertices(); v++ {
		g, w := got.Neighbors(graph.Vertex(v)), want.Neighbors(graph.Vertex(v))
		if !slices.Equal(g, w) {
			return fmt.Sprintf("row %d is %v, want %v", v, g, w)
		}
	}
	return ""
}

// TestFromRunsMatchesFromEdges builds the 12 fixtures, a graph with
// isolated vertices, the graphs on 0 and 1 vertices, and a G(n,m) large
// enough that every worker gets rows, from their runs in chunks of 1, 5
// and 1024 vertices on 1, 2, 3 and 8 workers: each must be the CSR that
// FromEdges builds from the same edges.
func TestFromRunsMatchesFromEdges(t *testing.T) {
	inputs := map[string]*graph.Graph{
		"n=0":      graph.FromEdges(0, nil),
		"n=1":      graph.FromEdges(1, nil),
		"isolated": graph.FromEdges(40, []graph.Edge{{U: 0, V: 39}, {U: 3, V: 17}, {U: 17, V: 39}, {U: 6, V: 5}}),
		"gnm-5000": gen.GNM(5000, 40000, 3),
	}
	for _, fix := range testgraph.All {
		inputs[fix.Name] = fix.Build()
	}
	for name, g := range inputs {
		want := graph.FromEdges(g.NumVertices(), g.Edges())
		for _, chunk := range []int{1, 5, 1024} {
			runLen, runs := upperRuns(g, chunk)
			for _, threads := range []int{1, 2, 3, 8} {
				got := graph.FromRunsThreads(threads, g.NumVertices(), chunk, runLen, runs)
				if diff := sameCSR(got, want); diff != "" {
					t.Fatalf("%s, chunk %d, %d workers: %s", name, chunk, threads, diff)
				}
			}
		}
	}
}

// TestFromRunsRejectsBadRuns: a run that is not strictly ascending, holds
// its own vertex or one below it, or names a vertex ≥ n, and run lengths or
// chunks that do not cover n vertices, each panic.
func TestFromRunsRejectsBadRuns(t *testing.T) {
	for name, c := range map[string]struct {
		n, chunk int
		runLen   []int
		runs     [][]graph.Vertex
	}{
		"descending":   {4, 4, []int{2, 0, 0, 0}, [][]graph.Vertex{{3, 2}}},
		"duplicate":    {4, 4, []int{2, 0, 0, 0}, [][]graph.Vertex{{2, 2}}},
		"self":         {4, 4, []int{0, 1, 0, 0}, [][]graph.Vertex{{1}}},
		"below":        {4, 2, []int{0, 0, 1, 0}, [][]graph.Vertex{{}, {1}}},
		"out of range": {4, 4, []int{1, 0, 0, 0}, [][]graph.Vertex{{4}}},
		"short runLen": {4, 4, []int{1, 0, 0}, [][]graph.Vertex{{1}}},
		"chunks":       {4, 2, []int{1, 0, 0, 0}, [][]graph.Vertex{{1}}},
		"short chunk":  {4, 4, []int{1, 1, 0, 0}, [][]graph.Vertex{{1}}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			graph.FromRuns(c.n, c.chunk, c.runLen, c.runs)
		}()
	}
}

// The builders' allocation per adjacency entry of the graph they build, at
// 8 workers, where the per-worker row tables are largest. FromEdges on a
// shuffled R-MAT list (the counting passes) holds its 4-byte scratch,
// 8 bytes of adjacency, the row offsets twice, and per worker a count and a
// mark per row: 16.4 bytes here, 3.8 of them the workers' tables. FromRuns
// holds the adjacency, the row offsets and a cursor per row and worker:
// 10.6 bytes here. Each bound is about 1.25 times that, so tables that grew
// as workers × n, or a copy of the input, fail.
const (
	maxFromEdgesBytesPerEntry = 20
	maxFromRunsBytesPerEntry  = 13
)

// TestBuildersBytesPerEntry is the memory gate of FromEdges and FromRuns.
func TestBuildersBytesPerEntry(t *testing.T) {
	measure := func(build func() *graph.Graph) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g := build()
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(2*g.NumEdges())
	}
	rmat := gen.RMAT(gen.DefaultRMAT(14, 5))
	edges := rmat.Edges()
	// Shuffled, so that the rows arrive out of order.
	rng := gen.NewRNG(5)
	for i := len(edges) - 1; i > 0; i-- {
		j := rng.Uint64n(uint64(i + 1))
		edges[i], edges[j] = edges[j], edges[i]
	}
	perEntry := measure(func() *graph.Graph { return graph.FromEdgesThreads(8, rmat.NumVertices(), edges) })
	t.Logf("FromEdges: %.2f bytes per adjacency entry", perEntry)
	if perEntry > maxFromEdgesBytesPerEntry {
		t.Errorf("FromEdges allocates %.2f bytes per adjacency entry, more than %v", perEntry, maxFromEdgesBytesPerEntry)
	}

	rhg := gen.RHG(gen.RHGConfig{N: 1 << 14, AvgDegree: 32, Gamma: 2.8, Seed: 5})
	runLen, runs := upperRuns(rhg, 1024)
	perEntry = measure(func() *graph.Graph { return graph.FromRunsThreads(8, rhg.NumVertices(), 1024, runLen, runs) })
	t.Logf("FromRuns: %.2f bytes per adjacency entry", perEntry)
	if perEntry > maxFromRunsBytesPerEntry {
		t.Errorf("FromRuns allocates %.2f bytes per adjacency entry, more than %v", perEntry, maxFromRunsBytesPerEntry)
	}
}
