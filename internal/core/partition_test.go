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
//	auto  skewedPartition's quadratic ranges, which leave the low ranks
//	      tiny or empty ranges

// skewedPartition splits n vertices over p PEs at the quadratic boundaries
// n·i²/p², so range widths grow with rank: the low ranks get tiny or empty
// ranges and the last rank nearly half the vertices. With reverse the widths
// shrink with rank instead.
func skewedPartition(n uint64, p int, reverse bool) *part.Partition {
	starts := make([]uint64, p+1)
	pp := uint64(p * p)
	for i := range starts {
		if reverse {
			k := uint64(p - i)
			starts[i] = n - n*k*k/pp
		} else {
			starts[i] = n * uint64(i*i) / pp
		}
	}
	pt, err := part.New(starts)
	if err != nil {
		panic(err)
	}
	return pt
}

// partitionByName returns the named partition of g over p PEs (nil selects
// the default uniform ranges).
func partitionByName(g *graph.Graph, p int, name string) *part.Partition {
	if name == "off" {
		return nil
	}
	return skewedPartition(uint64(g.NumVertices()), p, false)
}

// partitionConfig is the knob set the partition suites run under.
func partitionConfig(g *graph.Graph, p int, name string, overlap bool) Config {
	return Config{P: p, Overlap: overlap, Partition: partitionByName(g, p, name)}
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
// rmat fixture the skewed placement must actually move vertices off
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
		t.Fatal("skewed placement equals the uniform one — the auto cells are vacuous")
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

// TestPlacementHybridThreads runs the skewed placement through the
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
