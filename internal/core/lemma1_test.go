package core

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/part"
)

// cutGraph returns ∂G, the reference oracle of the Lemma 1 tests: the graph
// on G's vertex set holding exactly the cut edges of the 1D partition pt.
func cutGraph(g *graph.Graph, pt *part.Partition) *graph.Graph {
	var edges []graph.Edge
	g.ForEachEdge(func(u, v graph.Vertex) {
		if pt.Rank(u) != pt.Rank(v) {
			edges = append(edges, graph.Edge{U: u, V: v})
		}
	})
	return graph.FromEdges(g.NumVertices(), edges)
}

// TestLemma1 verifies the paper's Lemma 1 directly: the triangles of the cut
// graph ∂G are exactly the type-3 triangles of G. We count ∂G's triangles
// with the (independently validated) sequential counter and compare against
// CETRIC's type-3 tally for the same partition.
func TestLemma1(t *testing.T) {
	for name, g := range testGraphs() {
		for _, p := range []int{2, 3, 5, 8} {
			t.Run(fmt.Sprintf("%s/p=%d", name, p), func(t *testing.T) {
				pt := part.Uniform(uint64(g.NumVertices()), p)
				cut := cutGraph(g, pt)
				wantType3 := SeqCount(cut)
				res, err := Run(AlgoCetric, g, Config{P: p})
				if err != nil {
					t.Fatal(err)
				}
				if res.TypeCounts[2] != wantType3 {
					t.Fatalf("type-3 count %d, but ∂G has %d triangles", res.TypeCounts[2], wantType3)
				}
			})
		}
	}
}

// TestLemma1NonUniformPartition repeats the check for a skewed partition.
func TestLemma1NonUniformPartition(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(8, 101))
	pt := skewedPartition(uint64(g.NumVertices()), 6, false)
	cut := cutGraph(g, pt)
	wantType3 := SeqCount(cut)
	res, err := Run(AlgoCetric, g, Config{P: 6, Partition: pt})
	if err != nil {
		t.Fatal(err)
	}
	if res.TypeCounts[2] != wantType3 {
		t.Fatalf("type-3 %d, ∂G triangles %d", res.TypeCounts[2], wantType3)
	}
}

func TestCutGraphSinglePEIsEmpty(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(7, 5))
	pt := part.Uniform(uint64(g.NumVertices()), 1)
	if cut := cutGraph(g, pt); cut.NumEdges() != 0 {
		t.Fatal("p=1 cut graph must be empty")
	}
}
