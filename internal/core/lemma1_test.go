package core

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/part"
)

// TestLemma1 verifies the paper's Lemma 1 directly: the triangles of the cut
// graph ∂G are exactly the type-3 triangles of G. We count ∂G's triangles
// with the (independently validated) sequential counter and compare against
// CETRIC's type-3 tally for the same partition.
func TestLemma1(t *testing.T) {
	for name, g := range testGraphs() {
		for _, p := range []int{2, 3, 5, 8} {
			t.Run(fmt.Sprintf("%s/p=%d", name, p), func(t *testing.T) {
				pt := part.Uniform(uint64(g.NumVertices()), p)
				cut := graph.CutGraph(g, pt)
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
	cut := graph.CutGraph(g, pt)
	wantType3 := SeqCount(cut)
	res, err := Run(AlgoCetric, g, Config{P: 6, Partition: pt})
	if err != nil {
		t.Fatal(err)
	}
	if res.TypeCounts[2] != wantType3 {
		t.Fatalf("type-3 %d, ∂G triangles %d", res.TypeCounts[2], wantType3)
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := gen.Complete(10)
	sub, remap := graph.InducedSubgraph(g, []graph.Vertex{2, 5, 7, 9})
	if sub.NumVertices() != 4 || sub.NumEdges() != 6 {
		t.Fatalf("induced K4 shape %d/%d", sub.NumVertices(), sub.NumEdges())
	}
	if SeqCount(sub) != 4 {
		t.Fatalf("induced K4 should have 4 triangles")
	}
	if remap[2] == -1 || remap[0] != -1 {
		t.Fatal("remap wrong")
	}
}

func TestCutGraphSinglePEIsEmpty(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(7, 5))
	pt := part.Uniform(uint64(g.NumVertices()), 1)
	if cut := graph.CutGraph(g, pt); cut.NumEdges() != 0 {
		t.Fatal("p=1 cut graph must be empty")
	}
}
