package gen_test

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/testgraph"
)

// choose3 returns C(n,3).
func choose3(n uint64) uint64 {
	if n < 3 {
		return 0
	}
	return n * (n - 1) * (n - 2) / 6
}

// TestGeneratorGoldenCounts pins every generator in the package to an exact
// triangle count on a small instance, verified by brute-force O(n³)
// enumeration. Deterministic constructions are checked against their closed
// forms; seeded random generators against golden values recorded from the
// current implementation — a generator change that alters sampled structure
// (even at fixed seed) fails here first, before the distributed matrix.
func TestGeneratorGoldenCounts(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want uint64
	}{
		// Closed forms.
		{"Complete(10)", gen.Complete(10), choose3(10)},
		{"Complete(3)", gen.Complete(3), 1},
		{"CompleteBipartite(6,8)", gen.CompleteBipartite(6, 8), 0},
		{"Friendship(7)", gen.Friendship(7), 7},
		{"Friendship(1)", gen.Friendship(1), 1},
		{"TriangularGrid(5,4)", gen.TriangularGrid(5, 4), 2 * 4 * 3},
		{"TriangularGrid(2,2)", gen.TriangularGrid(2, 2), 2},
		{"Cycle(3)", testgraph.Cycle(3), 1},
		{"Cycle(8)", testgraph.Cycle(8), 0},
		{"Path(9)", testgraph.Path(9), 0},
		{"Star(12)", testgraph.Star(12), 0},
		{"Wheel(3)", testgraph.Wheel(3), 4}, // K4
		{"Wheel(9)", testgraph.Wheel(9), 9},
		{"Grid2D(5,5)", gen.Grid2D(5, 5), 0},
		{"Petersen", testgraph.Petersen(), 0}, // girth 5
		{"CliqueChain(4,5)", gen.CliqueChain(4, 5), 4 * choose3(5)},
		// Seeded random generators: golden values at these exact seeds.
		{"GNM(60,240,3)", gen.GNM(60, 240, 3), 84},
		{"RMAT(scale=6,seed=7)", gen.RMAT(gen.DefaultRMAT(6, 7)), 1151},
		{"RGG2D(80,6,9)", gen.RGG2D(80, 6, 9), 597},
		{"RHG(80,8,2.5,11)", gen.RHG(gen.RHGConfig{N: 80, AvgDegree: 8, Gamma: 2.5, Seed: 11}), 150},
		{"RoadNetwork(8,8,0.3,13)", gen.RoadNetwork(8, 8, 0.3, 13), 30},
		{"WebGraph(96,12,0.5,3,15)", gen.WebGraph(gen.WebConfig{N: 96, HostSize: 12, IntraP: 0.5, LongFactor: 3, Seed: 15}), 438},
	}
	for _, c := range cases {
		if got := testgraph.BruteForceCount(c.g); got != c.want {
			t.Errorf("%s: brute-force count %d, want %d", c.name, got, c.want)
		}
	}
}

// TestByFamilyCoversAllFamilies cross-checks the string-keyed entry point
// against the direct constructors: same family, same seed, same triangles.
func TestByFamilyCoversAllFamilies(t *testing.T) {
	for _, fam := range gen.Families() {
		g, err := gen.ByFamily(fam, 64, 4, 21)
		if err != nil {
			t.Fatalf("ByFamily(%s): %v", fam, err)
		}
		g2, err := gen.ByFamily(fam, 64, 4, 21)
		if err != nil {
			t.Fatal(err)
		}
		a, b := testgraph.BruteForceCount(g), testgraph.BruteForceCount(g2)
		if a != b {
			t.Errorf("ByFamily(%s) not deterministic: %d vs %d triangles", fam, a, b)
		}
	}
	if _, err := gen.ByFamily("no-such-family", 64, 4, 21); err == nil {
		t.Error("ByFamily should reject unknown families")
	}
}
