package graph

import (
	"slices"
	"testing"

	"repro/internal/part"
)

// TestGhostIndexTable pins the index on the tables where a reserved "empty"
// key would go wrong: no ghosts at all (p = 1), a single ghost, and ghost
// sets containing the values an empty slot's key field happens to hold (0)
// or that a sentinel design would reserve (^0). Every listed probe that is
// not a ghost must report absent.
func TestGhostIndexTable(t *testing.T) {
	const maxV = ^Vertex(0)
	run := make([]Vertex, 1000) // consecutive IDs: one long collision-prone run
	for i := range run {
		run[i] = 1<<40 + Vertex(i)
	}
	probes := []Vertex{0, 1, 2, 5, 6, 1 << 31, 1 << 32, 1<<40 - 1, 1<<40 + 1000, 1 << 63, maxV - 1, maxV}
	for _, tc := range []struct {
		name   string
		ghosts []Vertex
	}{
		{"zero ghosts", nil},
		{"single ghost", []Vertex{5}},
		{"single ghost 0", []Vertex{0}},
		{"single ghost max", []Vertex{maxV}},
		{"0 and max", []Vertex{0, maxV}},
		{"consecutive run", run},
	} {
		gi := newGhostIndex(tc.ghosts)
		if size := len(gi.ord); size&(size-1) != 0 || size < 2*len(tc.ghosts) || size >= max(2, 4*len(tc.ghosts)) {
			t.Fatalf("%s: %d slots for %d ghosts, want a power of two in [2g, 4g)", tc.name, size, len(tc.ghosts))
		}
		for i, g := range tc.ghosts {
			if ord, ok := gi.find(g); !ok || ord != i {
				t.Fatalf("%s: find(%d) = (%d,%v), want (%d,true)", tc.name, g, ord, ok, i)
			}
		}
		for _, x := range probes {
			if _, isGhost := slices.BinarySearch(tc.ghosts, x); isGhost {
				continue
			}
			if ord, ok := gi.find(x); ok {
				t.Fatalf("%s: find(%d) = %d for a non-ghost", tc.name, x, ord)
			}
		}
	}
}

// TestLocalGraphHostileLookups drives the same property through the
// LocalGraph surface: on a p = 1 view (no ghosts) and on a two-ghost view,
// GhostRow rejects locals, IDs ≥ n and the extreme values, and
// TranslateRows resolves a ghost wherever it stands in the list — a
// malformed (unsorted) record must not lose it.
func TestLocalGraphHostileLookups(t *testing.T) {
	edges := []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 1, V: 3}}
	hostile := []Vertex{0, 1, 4, 5, 1 << 32, ^Vertex(0)} // locals, IDs ≥ n, extremes

	solo := BuildLocal(part.Uniform(4, 1), 0, edges)
	if solo.NGhost() != 0 {
		t.Fatalf("p=1: %d ghosts", solo.NGhost())
	}
	for _, x := range append([]Vertex{2, 3}, hostile...) {
		if row, ok := solo.GhostRow(x); ok {
			t.Fatalf("p=1: GhostRow(%d) = %d", x, row)
		}
	}
	var tr RowTranslator
	if rows, nLoc := solo.TranslateRows(&tr, hostile); nLoc != 2 || !slices.Equal(rows, []uint64{0, 1}) {
		t.Fatalf("p=1: TranslateRows = %v (nLocal %d), want [0 1] (2)", rows, nLoc)
	}

	// PE 0 of two owns {0,1}; its ghosts are 2 and 3 (rows 2 and 3).
	pt := part.Uniform(4, 2)
	lg := BuildLocal(pt, 0, ScatterEdges(pt, edges)[0])
	if !slices.Equal(lg.Ghosts(), []Vertex{2, 3}) {
		t.Fatalf("ghosts %v, want [2 3]", lg.Ghosts())
	}
	for _, x := range hostile {
		if row, ok := lg.GhostRow(x); ok {
			t.Fatalf("GhostRow(%d) = %d, want absent", x, row)
		}
		if lg.IsLocal(x) {
			continue
		}
		func() { // Row has no "absent" result: an unknown vertex is a caller bug
			defer func() {
				if recover() == nil {
					t.Fatalf("Row(%d) returned for a vertex that is no row here", x)
				}
			}()
			lg.Row(x)
		}()
	}
	for _, tc := range []struct {
		list []Vertex
		want []uint64
	}{
		{[]Vertex{0, 2, 3}, []uint64{0, 2, 3}},
		{[]Vertex{3, 2, 0}, []uint64{0, 3, 2}},
		{[]Vertex{3, ^Vertex(0), 4, 2, 2}, []uint64{3, 2, 2}},
	} {
		if rows, _ := lg.TranslateRows(&tr, tc.list); !slices.Equal(rows, tc.want) {
			t.Fatalf("TranslateRows(%v) = %v, want %v", tc.list, rows, tc.want)
		}
	}
}
