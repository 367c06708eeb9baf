package testgraph

import (
	"testing"

	"repro/internal/graph"
)

// TestFixtureCountsAreExact recomputes every fixture's triangle count by
// brute force, so the precomputed Triangles column can never drift from the
// generators that produce the graphs.
func TestFixtureCountsAreExact(t *testing.T) {
	seen := make(map[string]bool)
	for _, fix := range All {
		if seen[fix.Name] {
			t.Fatalf("duplicate fixture name %q", fix.Name)
		}
		seen[fix.Name] = true
		g := fix.Build()
		if got := BruteForceCount(g); got != fix.Triangles {
			t.Errorf("%s: brute-force count %d, fixture says %d", fix.Name, got, fix.Triangles)
		}
	}
}

// TestBuildIsDeterministic guards the fixture contract that two Builds of
// the same fixture are identical graphs (seeded generators, no global
// state).
func TestBuildIsDeterministic(t *testing.T) {
	for _, fix := range All {
		a, b := fix.Build(), fix.Build()
		if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
			t.Fatalf("%s: two builds differ in shape: (%d,%d) vs (%d,%d)",
				fix.Name, a.NumVertices(), a.NumEdges(), b.NumVertices(), b.NumEdges())
		}
		ea, eb := a.Edges(), b.Edges()
		for i := range ea {
			if ea[i] != eb[i] {
				t.Fatalf("%s: edge %d differs: %v vs %v", fix.Name, i, ea[i], eb[i])
			}
		}
	}
}

func TestByName(t *testing.T) {
	g, ok := ByName("K12")
	if !ok || g.Triangles != 220 {
		t.Fatalf("ByName(K12) = %+v, %v", g, ok)
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("ByName(nope) should not exist")
	}
	if m := Map(); len(m) != len(All) || m["K12"].NumVertices() != 12 {
		t.Fatalf("Map() has %d entries", len(m))
	}
}

func TestClosedFormShapes(t *testing.T) {
	for _, tc := range []struct {
		name string
		n, m int
		g    *graph.Graph
	}{
		{"C10", 10, 10, Cycle(10)},
		{"P10", 10, 9, Path(10)},
		{"S6", 7, 6, Star(6)},
		{"W6", 7, 12, Wheel(6)},
		{"Petersen", 10, 15, Petersen()},
	} {
		if tc.g.NumVertices() != tc.n || tc.g.NumEdges() != tc.m {
			t.Errorf("%s: n=%d m=%d, want %d and %d", tc.name, tc.g.NumVertices(), tc.g.NumEdges(), tc.n, tc.m)
		}
	}
}
