package tricount

import (
	"math"
	"strings"
	"testing"

	"repro/internal/leakcheck"
)

// Facade tests: exercise the public API end to end the way a downstream user
// would.

func TestCountFacade(t *testing.T) {
	g := GenerateRMAT(10, 16, 42)
	want := CountSeq(g)
	for _, algo := range []Algorithm{AlgoDiTric, AlgoCetric, AlgoTriC} {
		for _, indirect := range []bool{false, true} {
			if indirect && algo == AlgoTriC {
				continue // the paper's indirect variants are DITRIC2 and CETRIC2
			}
			res, err := Count(g, algo, Options{P: 4, Indirect: indirect})
			if err != nil {
				t.Fatal(err)
			}
			if res.Count != want {
				t.Fatalf("%s indirect=%v: %d, want %d", algo, indirect, res.Count, want)
			}
		}
	}
}

func TestCountRejectsZeroPEs(t *testing.T) {
	g := GenerateGNM(100, 300, 1)
	if _, err := Count(g, AlgoCetric, Options{}); err == nil {
		t.Fatal("want error for zero PEs")
	}
}

func TestLCCFacade(t *testing.T) {
	g := GenerateRHG(1<<10, 16, 2.8, 7)
	want := LCCSeq(g)
	lcc, res, err := LCC(g, AlgoCetric, Options{P: 4, Indirect: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != CountSeq(g) {
		t.Fatal("count mismatch")
	}
	for v := range want {
		if lcc[v] != want[v] {
			t.Fatalf("LCC(%d) = %v, want %v", v, lcc[v], want[v])
		}
	}
}

func TestEnumerateFacade(t *testing.T) {
	g := GenerateGNM(60, 300, 5)
	count := uint64(0)
	Enumerate(g, func(a, b, c Vertex) {
		if !(a < b && b < c) {
			t.Fatalf("corners not ascending: %d %d %d", a, b, c)
		}
		if !g.HasEdge(a, b) || !g.HasEdge(b, c) || !g.HasEdge(a, c) {
			t.Fatal("non-triangle enumerated")
		}
		count++
	})
	if count != CountSeq(g) {
		t.Fatalf("enumerated %d, want %d", count, CountSeq(g))
	}
}

func TestApproxFacade(t *testing.T) {
	g := GenerateGNM(1<<10, 16<<10, 9)
	exact := CountSeq(g)
	res, err := CountApprox(g, Options{P: 4}, ApproxOptions{BitsPerKey: 16})
	if err != nil {
		t.Fatal(err)
	}
	rel := math.Abs(res.Estimate-float64(exact)) / float64(exact)
	if rel > 0.05 {
		t.Fatalf("estimate %f too far from %d (rel %f)", res.Estimate, exact, rel)
	}
}

func TestGeneratorFacades(t *testing.T) {
	if g := GenerateGNM(100, 400, 1); g.NumEdges() != 400 {
		t.Fatal("GNM size wrong")
	}
	if g := GenerateRMAT(8, 8, 1); g.NumVertices() != 256 {
		t.Fatal("RMAT size wrong")
	}
	if g := GenerateRGG2D(512, 8, 1); g.NumVertices() != 512 {
		t.Fatal("RGG size wrong")
	}
	if g := GenerateRHG(512, 16, 2.8, 1); g.NumVertices() != 512 {
		t.Fatal("RHG size wrong")
	}
}

func TestOptionsThreadsAndThreshold(t *testing.T) {
	g := GenerateRMAT(9, 16, 11)
	want := CountSeq(g)
	res, err := Count(g, AlgoCetric, Options{P: 3, Threads: 4, Threshold: 128})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != want {
		t.Fatalf("hybrid with tiny threshold: %d, want %d", res.Count, want)
	}
	// Indirect option forces grid routing on the plain algorithm name.
	res2, err := Count(g, AlgoDiTric, Options{P: 9, Indirect: true})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Count != want {
		t.Fatal("indirect option broke counting")
	}
}

func TestStreamFacade(t *testing.T) {
	g := GenerateRMAT(9, 8, 3)
	want := CountSeq(g)
	for _, algo := range []Algorithm{AlgoDiTric, AlgoCetric} {
		sres, err := Stream(g, algo, Options{P: 4}, 500)
		if err != nil {
			t.Fatal(err)
		}
		if sres.Count != want {
			t.Fatalf("%s: streamed %d, want %d", algo, sres.Count, want)
		}
		var sum uint64
		for _, d := range sres.Deltas {
			sum += d
		}
		if sres.Initial+sum != sres.Count {
			t.Fatalf("%s: Initial %d + deltas %d != Count %d", algo, sres.Initial, sum, sres.Count)
		}
	}
}

// TestStreamEdgesRejectsOutOfRangeVertex: an edge endpoint ≥ n in a pulled
// batch is an error naming the vertex, not a panic or a leaked goroutine.
func TestStreamEdgesRejectsOutOfRangeVertex(t *testing.T) {
	leakcheck.Check(t)
	pulled := false
	pull := func() []Edge {
		if pulled {
			return nil
		}
		pulled = true
		return []Edge{{U: 0, V: 1}, {U: 1, V: 5}}
	}
	_, err := StreamEdges(3, AlgoCetric, nil, pull, Options{P: 4})
	if err == nil || !strings.Contains(err.Error(), "vertex 5") {
		t.Fatalf("err %v, want one naming vertex 5", err)
	}
}

// TestFromEdgesRejectsOutOfRangeVertex: an edge endpoint outside [0, n) —
// n itself, the largest ID, or a self-loop at n, which FromEdges would
// otherwise drop unseen — is an error naming the vertex, not a panic; so is
// a negative n. In-range self-loops and duplicates are still dropped.
func TestFromEdgesRejectsOutOfRangeVertex(t *testing.T) {
	const n = 3
	for _, tc := range []struct {
		name  string
		n     int
		edges []Edge
		want  string
	}{
		{"endpoint n", n, []Edge{{U: 0, V: 1}, {U: 1, V: n}}, "vertex 3"},
		{"largest ID", n, []Edge{{U: ^Vertex(0), V: 1}}, "vertex 18446744073709551615"},
		{"self-loop at n", n, []Edge{{U: n, V: n}}, "vertex 3"},
		{"negative n", -1, nil, "negative vertex count -1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, err := FromEdges(tc.n, tc.edges)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("FromEdges = (%v, %v), want an error naming %q", g, err, tc.want)
			}
		})
	}
	g, err := FromEdges(n, []Edge{{U: 0, V: 1}, {U: 1, V: 0}, {U: 2, V: 2}, {U: 1, V: 2}})
	if err != nil || g.NumVertices() != n || g.NumEdges() != 2 {
		t.Fatalf("FromEdges = (%v, %v), want %d vertices and 2 edges", g, err, n)
	}
}

func TestStreamEdgesFacade(t *testing.T) {
	g := GenerateGNM(256, 2048, 9)
	edges := g.Edges()
	want := CountSeq(g)
	i := 0
	pull := func() []Edge { // hand-rolled pull source, 100 edges at a time
		if i >= len(edges) {
			return nil
		}
		j := min(i+100, len(edges))
		b := edges[i:j]
		i = j
		return b
	}
	sres, err := StreamEdges(g.NumVertices(), AlgoCetric, nil, pull, Options{P: 3})
	if err != nil {
		t.Fatal(err)
	}
	if sres.Count != want || sres.Initial != 0 {
		t.Fatalf("streamed %d (initial %d), want %d (initial 0)", sres.Count, sres.Initial, want)
	}
	rebuilt, err := FromEdges(g.NumVertices(), edges)
	if err != nil {
		t.Fatal(err)
	}
	if CountSeq(rebuilt) != want {
		t.Fatalf("FromEdges round trip lost triangles")
	}
}
