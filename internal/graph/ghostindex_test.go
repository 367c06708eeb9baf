package graph

import (
	"fmt"
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

// TestGhostSetGrowth drives insert, the growable side of the index the
// row-slab builder discovers ghosts with: ordinals come in first-appearance
// order across several doublings, a repeated insert returns the ordinal it
// got the first time, 0 and ^0 are keys like any other, and the table never
// passes half full.
func TestGhostSetGrowth(t *testing.T) {
	const maxV = ^Vertex(0)
	keys := []Vertex{maxV, 0}
	for i := Vertex(0); i < 5000; i++ {
		keys = append(keys, 1<<40+3*i, 7*i+1) // a clustered run and a strided one
	}
	gs := newGhostIndex(nil)
	want := make(map[Vertex]int)
	for round := 0; round < 2; round++ { // the second round re-inserts every key
		for _, x := range keys {
			if _, seen := want[x]; !seen {
				want[x] = len(want)
			}
			if o := gs.insert(x); o != want[x] {
				t.Fatalf("round %d: insert(%d) = %d, want %d", round, x, o, want[x])
			}
			if size := len(gs.ord); size&(size-1) != 0 || size < 2*len(gs.ids) {
				t.Fatalf("%d slots for %d keys", size, len(gs.ids))
			}
		}
	}
	if len(gs.ids) != len(want) || len(gs.ord) < 1<<14 {
		t.Fatalf("%d keys in %d slots, want %d keys after several doublings", len(gs.ids), len(gs.ord), len(want))
	}
	for x, o := range want {
		if got, ok := gs.find(x); !ok || got != o || gs.ids[o] != x {
			t.Fatalf("find(%d) = (%d,%v), want (%d,true)", x, got, ok, o)
		}
	}
	for _, x := range []Vertex{2, 1<<40 + 1, 1 << 63, maxV - 1} {
		if o, ok := gs.find(x); ok {
			t.Fatalf("find(%d) = %d for a key never inserted", x, o)
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
	if rows, nLoc := solo.TranslateRows(&tr, hostile); nLoc != 2 || !slices.Equal(rows, []uint32{0, 1}) {
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
		want []uint32
	}{
		{[]Vertex{0, 2, 3}, []uint32{0, 2, 3}},
		{[]Vertex{3, 2, 0}, []uint32{0, 3, 2}},
		{[]Vertex{3, ^Vertex(0), 4, 2, 2}, []uint32{3, 2, 2}},
	} {
		if rows, _ := lg.TranslateRows(&tr, tc.list); !slices.Equal(rows, tc.want) {
			t.Fatalf("TranslateRows(%v) = %v, want %v", tc.list, rows, tc.want)
		}
	}
}

// TestGhostIndexLayoutsAgainstOracle probes both layouts of a view's ghost
// index — find, GhostRow, TranslateRows and TranslateRowSet — with 0, ^0, n,
// IDs between ghosts, IDs past n and local IDs, against a binary search of
// the ghost array. Both PEs of a 2-way split of n = 16 are built twice: with
// two edges per vertex (few cut entries: the hash) and as a clique less the
// edges from 0 to 8…11 and from 8 to 0…3 (cut entries outnumber n: the
// dense table). Either way the ghosts first appear in the rows out of ID
// order, so a build that left provisional ordinals in the index would
// resolve them to the wrong rows.
func TestGhostIndexLayoutsAgainstOracle(t *testing.T) {
	const n = 16
	pt := part.Uniform(n, 2)
	var sparse, clique []Edge
	for v := Vertex(0); v < n; v++ {
		sparse = append(sparse, Edge{U: v, V: (v*7 + 3) % n}, Edge{U: v, V: (v*5 + 11) % n})
		for u := v + 1; u < n; u++ {
			if (v == 0 && u >= 8 && u < 12) || (v < 4 && u == 8) {
				continue
			}
			clique = append(clique, Edge{U: v, V: u})
		}
	}
	const maxV = ^Vertex(0)
	probes := []Vertex{maxV, maxV - 1, 1 << 32, 1<<32 + 3, n + 5, n + 1, n}
	for x := Vertex(n); x > 0; x-- {
		probes = append(probes, x-1) // every ID, descending: out of list order
	}
	seen := map[bool]bool{}
	for name, edges := range map[string][]Edge{"sparse": sparse, "clique": clique} {
		per := ScatterEdges(pt, edges)
		for rank := 0; rank < 2; rank++ {
			lg := BuildLocal(pt, rank, per[rank])
			tag := fmt.Sprintf("%s rank %d (dense=%v)", name, rank, lg.ghosts.dense)
			if want := name == "clique"; lg.ghosts.dense != want {
				t.Fatalf("%s: dense layout %v, want %v", tag, lg.ghosts.dense, want)
			}
			seen[lg.ghosts.dense] = true
			ghosts := lg.Ghosts()
			var wantRows, wantSet []uint32
			var wantLoc []uint32
			for _, x := range probes {
				ord, isGhost := slices.BinarySearch(ghosts, x)
				if lg.IsLocal(x) {
					isGhost = false
					wantLoc = append(wantLoc, uint32(x-lg.First))
					wantSet = append(wantSet, uint32(x-lg.First))
				}
				gotOrd, ok := lg.ghosts.find(x)
				row, rowOK := lg.GhostRow(x)
				if ok != isGhost || rowOK != isGhost || (isGhost && (gotOrd != ord || int(row) != lg.NLocal()+ord)) {
					t.Fatalf("%s: find(%d) = (%d,%v), GhostRow = (%d,%v); oracle ghost=%v ordinal %d",
						tag, x, gotOrd, ok, row, rowOK, isGhost, ord)
				}
				if isGhost {
					wantRows = append(wantRows, uint32(lg.NLocal()+ord))
					wantSet = append(wantSet, uint32(lg.NLocal()+ord))
				}
			}
			var tr RowTranslator
			rows, nLoc := lg.TranslateRows(&tr, probes)
			if want := append(slices.Clone(wantLoc), wantRows...); nLoc != len(wantLoc) || !slices.Equal(rows, want) {
				t.Fatalf("%s: TranslateRows = %v (nLocal %d), oracle %v (nLocal %d)", tag, rows, nLoc, want, len(wantLoc))
			}
			if set := lg.TranslateRowSet(&tr, probes); !slices.Equal(set, wantSet) {
				t.Fatalf("%s: TranslateRowSet = %v, oracle %v", tag, set, wantSet)
			}
		}
	}
	if !seen[true] || !seen[false] {
		t.Fatalf("layouts seen %v; the table must probe both", seen)
	}
}
