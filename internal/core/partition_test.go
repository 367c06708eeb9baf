package core

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/part"
	"repro/internal/testgraph"
)

// The suites below test the vertex partition of a 1D run: which contiguous
// ID range each PE owns. They hold every engine to the partition invariant —
// moving vertices between PEs never changes a count, a triangle set or a
// per-vertex Δ. (Their TestPlacement* names predate the removal of the hub
// placement overlay; they test partitions only.) Two partitions are
// compared throughout:
//
//	off   the default uniform ranges (Config.Partition nil)
//	auto  the cost-balanced ranges cmd/tricount's -partition=wedges builds:
//	      part.ByCost under part.CostWedges, which shrinks the ranges of PEs
//	      that own hubs
//
// Runs use HubThreshold 2, so even the tiny fixtures get hub bitmaps and the
// hub arm of graph.LocalOriented.Probe runs under both partitions.

// partitionByName returns the named partition of g over p PEs (nil selects
// the default uniform ranges).
func partitionByName(g *graph.Graph, p int, name string) *part.Partition {
	if name == "off" {
		return nil
	}
	degrees := make([]int, g.NumVertices())
	for v := range degrees {
		degrees[v] = g.Degree(graph.Vertex(v))
	}
	return part.ByCost(degrees, p, part.CostWedges)
}

// partitionConfig is the knob set the partition suites run under.
func partitionConfig(g *graph.Graph, p int, name string, overlap bool) Config {
	return Config{P: p, HubThreshold: 2, Overlap: overlap, Partition: partitionByName(g, p, name)}
}

// TestPlacementEquivalence: every fixture × algorithm × P × placement ×
// overlap combination must land exactly on the fixture's known triangle
// count.
func TestPlacementEquivalence(t *testing.T) {
	for _, fix := range testgraph.All {
		name, g, want := fix.Name, fix.Build(), fix.Triangles
		for _, algo := range []Algorithm{AlgoDiTric, AlgoCetric} {
			for _, p := range []int{1, 2, 4, 8} {
				for _, placement := range []string{"auto", "off"} {
					for _, overlap := range []bool{false, true} {
						t.Run(fmt.Sprintf("%s/%s/p=%d/%s/overlap=%v", algo, name, p, placement, overlap), func(t *testing.T) {
							res, err := Run(algo, g, partitionConfig(g, p, placement, overlap))
							if err != nil {
								t.Fatal(err)
							}
							if res.Count != want {
								t.Fatalf("%s on %s p=%d placement=%s overlap=%v: count %d, want %d",
									algo, name, p, placement, overlap, res.Count, want)
							}
						})
					}
				}
			}
		}
	}
}

// TestPlacementEngages guards the suites against passing vacuously: on the
// skewed fixture the cost-balanced placement must actually move vertices off
// their uniform owners — otherwise the auto cells repeat the off cells — and
// the per-PE work it yields must differ from the uniform run's.
func TestPlacementEngages(t *testing.T) {
	fix, _ := testgraph.ByName("rmat")
	g := fix.Build()
	const p = 8
	auto, uniform := partitionByName(g, p, "auto"), part.Uniform(uint64(g.NumVertices()), p)
	moved := false
	for i := 0; i < p; i++ {
		alo, ahi := auto.Range(i)
		ulo, uhi := uniform.Range(i)
		moved = moved || alo != ulo || ahi != uhi
	}
	if !moved {
		t.Fatal("cost-balanced placement equals the uniform one — the auto cells are vacuous")
	}
	for _, algo := range []Algorithm{AlgoDiTric, AlgoCetric} {
		placed, err := Run(algo, g, partitionConfig(g, p, "auto", false))
		if err != nil {
			t.Fatal(err)
		}
		home, err := Run(algo, g, partitionConfig(g, p, "off", false))
		if err != nil {
			t.Fatal(err)
		}
		if placed.Count != fix.Triangles || home.Count != fix.Triangles {
			t.Fatalf("%s: placed %d, uniform %d, want %d", algo, placed.Count, home.Count, fix.Triangles)
		}
		same := true
		for i := range placed.PerPE {
			same = same && placed.PerPE[i].SentWords == home.PerPE[i].SentWords
		}
		if same {
			t.Fatalf("%s: per-PE sent words identical under both placements — the partition was not applied", algo)
		}
	}
}

// TestPlacementTriangleSetsIdentical compares the actual triangle sets, not
// just the totals: an overcount that cancels against an undercount would
// slip past a count comparison but not past set equality + the duplicate
// check. Uneven ranges put hubs and their neighbours on different PEs than
// the uniform split does, so a wedge closed twice across a moved boundary
// shows up here.
func TestPlacementTriangleSetsIdentical(t *testing.T) {
	fix, _ := testgraph.ByName("rmat")
	g := fix.Build()
	want := make(map[[3]graph.Vertex]bool)
	SeqEnumerate(g, func(v, u, w graph.Vertex) { want[CanonTriangle(v, u, w)] = true })
	for _, algo := range []Algorithm{AlgoDiTric, AlgoCetric} {
		for _, p := range []int{2, 4, 8} {
			cfg := partitionConfig(g, p, "auto", false)
			cfg.Collect = true
			res, err := Run(algo, g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			seen := make(map[[3]graph.Vertex]bool)
			for _, tri := range res.Triangles {
				if seen[tri] {
					t.Fatalf("%s p=%d: duplicate triangle %v under placement", algo, p, tri)
				}
				seen[tri] = true
				if !want[tri] {
					t.Fatalf("%s p=%d: spurious triangle %v under placement", algo, p, tri)
				}
			}
			if len(seen) != len(want) {
				t.Fatalf("%s p=%d: %d distinct triangles, want %d", algo, p, len(seen), len(want))
			}
		}
	}
}

// TestPlacementLCC pins the ghost-Δ exchange under uneven ranges: a
// triangle's corners land on whichever PEs the placement gives them, and
// every per-vertex count must still match the sequential oracle exactly.
func TestPlacementLCC(t *testing.T) {
	for _, name := range []string{"rmat", "web", "cliques"} {
		fix, ok := testgraph.ByName(name)
		if !ok {
			t.Fatalf("fixture %s missing", name)
		}
		g := fix.Build()
		_, wantDeltas := SeqDeltas(g)
		for _, algo := range []Algorithm{AlgoDiTric, AlgoCetric} {
			for _, overlap := range []bool{false, true} {
				cfg := partitionConfig(g, 4, "auto", overlap)
				cfg.LCC = true
				res, err := Run(algo, g, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for v, want := range wantDeltas {
					if res.Deltas[v] != want {
						t.Fatalf("%s/%s overlap=%v: Δ(%d) = %d, want %d",
							algo, name, overlap, v, res.Deltas[v], want)
					}
				}
			}
		}
	}
}

// TestPlacementHybridThreads runs the cost-balanced placement through the
// funneled worker pool (barriered) and the chunk-stealing workers
// (overlapped), whose row chunks follow the uneven ranges.
func TestPlacementHybridThreads(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(9, 31))
	want := SeqCount(g)
	for _, algo := range []Algorithm{AlgoDiTric, AlgoCetric} {
		for _, overlap := range []bool{false, true} {
			cfg := partitionConfig(g, 4, "auto", overlap)
			cfg.Threads = 4
			res, err := Run(algo, g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Count != want {
				t.Fatalf("%s threads=4 overlap=%v placed: %d, want %d", algo, overlap, res.Count, want)
			}
		}
	}
}

// TestPlacementIndirectVariants covers the grid-routed "2" algorithms: a
// record's destination is the owner under the uneven ranges, and it must
// survive two-hop delivery unchanged.
func TestPlacementIndirectVariants(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(8, 11))
	want := SeqCount(g)
	for _, algo := range []variant{vDiTric2, vCetric2} {
		res, err := algo.run(g, partitionConfig(g, 9, "auto", false))
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != want {
			t.Fatalf("%s placed: %d, want %d", algo, res.Count, want)
		}
	}
}

// TestPlacementValidation: every 1D algorithm rejects a placement that does
// not match its run — ranges over a different PE count or a different vertex
// count — and TK2D rejects any 1D placement.
func TestPlacementValidation(t *testing.T) {
	g := gen.Complete(8)
	n := uint64(g.NumVertices())
	for _, algo := range paperVariants {
		for _, pt := range []*part.Partition{part.Uniform(n, 3), part.Uniform(n-1, 2)} {
			if _, err := algo.run(g, Config{P: 2, Partition: pt}); err == nil {
				t.Fatalf("%s accepted a placement over %d PEs and %d vertices for a 2-PE run on %d", algo, pt.P(), pt.N(), n)
			}
		}
	}
	if _, err := Run(AlgoTK2D, g, Config{P: 4, Partition: part.Uniform(n, 4)}); err == nil {
		t.Fatal("tk2d accepted a 1D placement")
	}
}

// TestComputePlacementProperties exercises the cost-balanced placement on a
// pathological skew: every heavy hub sits in the ID range the uniform split
// hands PE 0. The balanced ranges must move vertices off PE 0, lower the
// most loaded PE's wedge cost, cover every vertex exactly once, and be a
// pure function of their inputs.
func TestComputePlacementProperties(t *testing.T) {
	const p, n = 4, 400
	degrees := make([]int, n)
	for v := range degrees {
		degrees[v] = 2
		if v < 8 {
			degrees[v] = 40
		}
	}
	pt := part.ByCost(degrees, p, part.CostWedges)
	uniform := part.Uniform(n, p)
	if pt.Size(0) >= uniform.Size(0) {
		t.Fatalf("PE 0 keeps %d vertices, uniform gives it %d: nothing moved off the overloaded PE", pt.Size(0), uniform.Size(0))
	}
	maxCost := func(pt *part.Partition) float64 {
		worst := 0.0
		for i := 0; i < p; i++ {
			lo, hi := pt.Range(i)
			c := 0.0
			for v := lo; v < hi; v++ {
				c += part.CostWedges(degrees[v])
			}
			worst = max(worst, c)
		}
		return worst
	}
	if maxCost(pt) >= maxCost(uniform) {
		t.Fatalf("balanced max PE cost %.0f not below uniform's %.0f", maxCost(pt), maxCost(uniform))
	}
	if pt.P() != p || pt.N() != n {
		t.Fatalf("placement over %d PEs and %d vertices, want %d and %d", pt.P(), pt.N(), p, n)
	}
	for v := uint64(0); v < n; v++ {
		if r := pt.Rank(v); r < 0 || r >= p || !pt.Owns(r, v) {
			t.Fatalf("vertex %d placed on PE %d that does not own it", v, r)
		}
	}
	again := part.ByCost(degrees, p, part.CostWedges)
	for i := 0; i < p; i++ {
		lo1, hi1 := pt.Range(i)
		lo2, hi2 := again.Range(i)
		if lo1 != lo2 || hi1 != hi2 {
			t.Fatalf("placement is not deterministic at PE %d: [%d,%d) vs [%d,%d)", i, lo1, hi1, lo2, hi2)
		}
	}
}
