package core

import (
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/testgraph"
)

// TestSeqCountClosedForms checks the sequential oracles on closed-form
// graphs and on every testgraph fixture: SeqCount and NaiveCount agree with
// the known count, SeqDeltas sums to three per triangle, and SeqEnumerate
// emits each triangle exactly once. A mark that SeqCount or SeqEnumerate
// failed to clear after one vertex would count a wedge of a later vertex
// closed by that earlier out-neighborhood.
func TestSeqCountClosedForms(t *testing.T) {
	type row struct {
		name string
		g    *graph.Graph
		want uint64
	}
	cases := []row{
		{"K4", gen.Complete(4), 4},
		{"K5", gen.Complete(5), 10},
		{"K10", gen.Complete(10), 120},
		{"K25", gen.Complete(25), 2300},
		{"K_3_4", gen.CompleteBipartite(3, 4), 0},
		{"K_10_10", gen.CompleteBipartite(10, 10), 0},
		{"C3", testgraph.Cycle(3), 1},
		{"C4", testgraph.Cycle(4), 0},
		{"C100", testgraph.Cycle(100), 0},
		{"P10", testgraph.Path(10), 0},
		{"Star20", testgraph.Star(20), 0},
		{"Wheel3", testgraph.Wheel(3), 4}, // K4
		{"Wheel5", testgraph.Wheel(5), 5},
		{"Wheel50", testgraph.Wheel(50), 50},
		{"Friendship7", gen.Friendship(7), 7},
		{"Grid8x5", gen.Grid2D(8, 5), 0},
		{"TriGrid6x4", gen.TriangularGrid(6, 4), 2 * 5 * 3},
		{"Petersen", testgraph.Petersen(), 0},
		{"CliqueChain4x6", gen.CliqueChain(4, 6), 4 * 20},
		{"Empty", graph.FromEdges(0, nil), 0},
		{"Singleton", graph.FromEdges(1, nil), 0},
	}
	for _, fix := range testgraph.All {
		cases = append(cases, row{fix.Name, fix.Build(), fix.Triangles})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := SeqCount(tc.g); got != tc.want {
				t.Errorf("SeqCount = %d, want %d", got, tc.want)
			}
			if got := NaiveCount(tc.g); got != tc.want {
				t.Errorf("NaiveCount = %d, want %d", got, tc.want)
			}
			count, deltas := SeqDeltas(tc.g)
			var sum uint64
			for _, d := range deltas {
				sum += d
			}
			if count != tc.want || sum != 3*tc.want {
				t.Errorf("SeqDeltas = %d with ΣΔ = %d, want %d and %d", count, sum, tc.want, 3*tc.want)
			}
			seen := make(map[[3]graph.Vertex]int)
			SeqEnumerate(tc.g, func(v, u, w graph.Vertex) { seen[CanonTriangle(v, u, w)]++ })
			if uint64(len(seen)) != tc.want {
				t.Errorf("SeqEnumerate emitted %d distinct triangles, want %d", len(seen), tc.want)
			}
			for tri, n := range seen {
				if n != 1 {
					t.Errorf("SeqEnumerate emitted %v %d times", tri, n)
				}
			}
		})
	}
}

func TestSeqCountMatchesNaiveOnRandomGraphs(t *testing.T) {
	check := func(seed uint64) bool {
		g := gen.GNM(60, 240, seed)
		return SeqCount(g) == NaiveCount(g)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSeqDeltasSumsToThreeTimesCount(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 42} {
		g := gen.RMAT(gen.DefaultRMAT(8, seed))
		count, deltas := SeqDeltas(g)
		if count != SeqCount(g) {
			t.Fatalf("seed %d: SeqDeltas count %d != SeqCount %d", seed, count, SeqCount(g))
		}
		var sum uint64
		for _, d := range deltas {
			sum += d
		}
		if sum != 3*count {
			t.Fatalf("seed %d: Σdeltas = %d, want 3*%d", seed, sum, count)
		}
	}
}

func TestSeqEnumerateEmitsEachTriangleOnce(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(7, 9))
	seen := make(map[[3]graph.Vertex]int)
	SeqEnumerate(g, func(v, u, w graph.Vertex) {
		seen[CanonTriangle(v, u, w)]++
	})
	want := SeqCount(g)
	if uint64(len(seen)) != want {
		t.Fatalf("enumerated %d distinct triangles, want %d", len(seen), want)
	}
	for tri, n := range seen {
		if n != 1 {
			t.Fatalf("triangle %v emitted %d times", tri, n)
		}
		if !g.HasEdge(tri[0], tri[1]) || !g.HasEdge(tri[1], tri[2]) || !g.HasEdge(tri[0], tri[2]) {
			t.Fatalf("enumerated non-triangle %v", tri)
		}
	}
}

func TestSeqLCC(t *testing.T) {
	// Every vertex of a complete graph has LCC 1.
	for _, lcc := range SeqLCC(gen.Complete(6)) {
		if lcc != 1 {
			t.Fatalf("K6 LCC = %v, want all 1", lcc)
		}
	}
	// Friendship graph: hub sees k triangles among C(2k,2) pairs, leaves 1.
	k := 5
	lcc := SeqLCC(gen.Friendship(k))
	hubWant := 2 * float64(k) / (float64(2*k) * float64(2*k-1))
	if diff := lcc[0] - hubWant; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("friendship hub LCC = %v, want %v", lcc[0], hubWant)
	}
	for v := 1; v < 2*k+1; v++ {
		if lcc[v] != 1 {
			t.Fatalf("friendship leaf %d LCC = %v, want 1", v, lcc[v])
		}
	}
	// Triangle-free graphs have all-zero LCC.
	for _, l := range SeqLCC(testgraph.Petersen()) {
		if l != 0 {
			t.Fatal("Petersen should have zero LCC everywhere")
		}
	}
}

// TestIntersectKernelsAgreeWithMerge drives every kernel of the adaptive
// engine over random sorted slices at skew ratios from balanced to 1:200,
// with CountMerge as the oracle; each kernel must agree in both argument
// orders.
func TestIntersectKernelsAgreeWithMerge(t *testing.T) {
	kernels := []struct {
		name string
		run  func(a, b []graph.Vertex) uint64
	}{
		{"adaptive", graph.CountIntersect[graph.Vertex]},
		{"merge", graph.CountMerge[graph.Vertex]}, // the oracle, in both argument orders
		{"gallop", graph.CountGallop[graph.Vertex]},
		{"bitmap", func(a, b []graph.Vertex) uint64 {
			bs := make(graph.Bitset, graph.BitsetWords(1000))
			graph.SetList(bs, b)
			return graph.CountList(bs, a)
		}},
		{"foreach", func(a, b []graph.Vertex) uint64 {
			var n uint64
			graph.ForEachCommon(a, b, func(graph.Vertex) { n++ })
			return n
		}},
	}
	sizes := []struct {
		name   string
		na, nb uint64
	}{
		{"balanced", 200, 200},
		{"mild-skew", 200, 25},
		{"heavy-skew", 200, 8}, // triggers galloping inside adaptive
		{"singleton", 200, 1},
	}
	for _, k := range kernels {
		for _, sz := range sizes {
			t.Run(k.name+"/"+sz.name, func(t *testing.T) {
				check := func(seed uint64) bool {
					rng := gen.NewRNG(seed)
					a := randomSorted(rng, 1+int(rng.Uint64n(sz.na)), 1000)
					b := randomSorted(rng, 1+int(rng.Uint64n(sz.nb)), 1000)
					want := graph.CountMerge(a, b)
					return k.run(a, b) == want && k.run(b, a) == want
				}
				if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

func randomSorted(rng *gen.SplitMix64, n int, max uint64) []graph.Vertex {
	set := make(map[uint64]struct{})
	for len(set) < n {
		set[rng.Uint64n(max)] = struct{}{}
	}
	out := make([]graph.Vertex, 0, n)
	for v := range set {
		out = append(out, v)
	}
	sortVertices(out)
	return out
}

func sortVertices(vs []graph.Vertex) {
	for i := 1; i < len(vs); i++ {
		for j := i; j > 0 && vs[j] < vs[j-1]; j-- {
			vs[j], vs[j-1] = vs[j-1], vs[j]
		}
	}
}
