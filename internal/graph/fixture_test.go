package graph_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/part"
	"repro/internal/testgraph"
)

// orient returns the ID-oriented out-lists A(v) = {u ∈ N(v) | u > v},
// sorted ascending (Neighbors is sorted, so the suffix is too).
func orient(g *graph.Graph) [][]graph.Vertex {
	out := make([][]graph.Vertex, g.NumVertices())
	for v := range out {
		nv := g.Neighbors(graph.Vertex(v))
		i := 0
		for i < len(nv) && nv[i] <= graph.Vertex(v) {
			i++
		}
		out[v] = nv[i:]
	}
	return out
}

// TestIntersectionCountsMatchFixtures drives the intersection primitives
// through a whole-graph triangle count on every shared fixture: each
// oriented edge (v,u) contributes |A(v) ∩ A(u)| triangles, and the total
// must equal the fixture's precomputed count. This pins CountIntersect,
// CountMerge, and ForEachCommon against an external ground truth instead of
// only against each other, in both instantiations: 8-byte global IDs and
// the same lists as 4-byte indices.
func TestIntersectionCountsMatchFixtures(t *testing.T) {
	for _, fix := range testgraph.All {
		g := fix.Build()
		out := orient(g)
		narrow := make([][]uint32, len(out))
		for v, av := range out {
			narrow[v] = narrowList(av)
		}
		want := [3]uint64{fix.Triangles, fix.Triangles, fix.Triangles}
		if got := fixtureCounts(out); got != want {
			t.Errorf("%s uint64: adaptive, merge, common = %v, want %d", fix.Name, got, fix.Triangles)
		}
		if got := fixtureCounts(narrow); got != want {
			t.Errorf("%s uint32: adaptive, merge, common = %v, want %d", fix.Name, got, fix.Triangles)
		}
	}
}

// fixtureCounts sums |A(v) ∩ A(u)| over every oriented edge through the
// adaptive, merge and for-each kernels.
func fixtureCounts[T graph.Index](out [][]T) (sums [3]uint64) {
	for _, av := range out {
		for _, u := range av {
			au := out[u]
			sums[0] += graph.CountIntersect(av, au)
			sums[1] += graph.CountMerge(av, au)
			graph.ForEachCommon(av, au, func(T) { sums[2]++ })
		}
	}
	return sums
}

// narrowList copies a list of small IDs into 4-byte indices.
func narrowList(list []graph.Vertex) []uint32 {
	out := make([]uint32, len(list))
	for i, x := range list {
		out[i] = uint32(x)
	}
	return out
}

// sameValues reports whether a 4-byte row list holds exactly the values of
// a 64-bit oracle list, in order.
func sameValues(got []uint32, want []uint64) bool {
	return slices.EqualFunc(got, want, func(g uint32, w uint64) bool { return uint64(g) == w })
}

// TestIDOrientationHubRows pins which fixtures reach the hub arm of Probe
// through TriC, the one engine that builds a hub index: on a one-PE view,
// the ID orientation at DefaultHubMinDegree gives rmat, rhg and web hub rows
// and every other fixture none.
func TestIDOrientationHubRows(t *testing.T) {
	want := map[string]int{"rmat": 18, "rhg": 4, "web": 1}
	for _, fix := range testgraph.All {
		g := fix.Build()
		pt := part.Uniform(uint64(g.NumVertices()), 1)
		lg := graph.BuildLocal(pt, 0, graph.ScatterEdges(pt, g.Edges())[0])
		ori := graph.OrientLocalByIDPar(lg, 1)
		ori.BuildHubs(graph.DefaultHubMinDegree)
		if got := ori.NumHubs(); got != want[fix.Name] {
			t.Errorf("%s: %d hub rows, want %d", fix.Name, got, want[fix.Name])
		}
	}
}

// TestRowSpaceCountsMatchFixtures distributes every fixture over 4 PEs and
// recounts type-1/2 triangles per PE through the row-translated layout
// (OutRows + the stamped wedge kernel: Mark, Probe and the three set
// kernels), checking it pair by pair against the global orientation's ID
// lists, restricted to what the PE sees — the row-space lists must be an
// exact relabeling of those.
func TestRowSpaceCountsMatchFixtures(t *testing.T) {
	for _, fix := range testgraph.All {
		g := fix.Build()
		if g.NumVertices() < 4 {
			continue
		}
		pt := part.Uniform(uint64(g.NumVertices()), 4)
		per := graph.ScatterEdges(pt, g.Edges())
		global := graph.Orient(g)
		for rank := 0; rank < 4; rank++ {
			lg := graph.BuildLocal(pt, rank, per[rank])
			for i, gid := range lg.Ghosts() {
				lg.SetGhostDegree(int32(lg.NLocal()+i), g.Degree(gid))
			}
			// out is A(row) in IDs: the global list of a local row, and of
			// a ghost row its local entries.
			out := func(row int32) []graph.Vertex {
				v := lg.GID(row)
				if lg.IsLocal(v) {
					return global.Out(v)
				}
				var a []graph.Vertex
				for _, x := range global.Out(v) {
					if lg.IsLocal(x) {
						a = append(a, x)
					}
				}
				return a
			}
			ori := graph.OrientLocalPar(lg, 1)
			ori.BuildHubs(1) // force bitmaps everywhere they fit
			mark := ori.NewRowMark()
			nLoc := uint32(lg.NLocal())
			for r := 0; r < lg.Rows(); r++ {
				rv := int32(r)
				// Row-space lists must be exact relabelings of the global ones.
				av, avRows := out(rv), ori.OutRows(rv)
				if len(av) != len(avRows) {
					t.Fatalf("%s rank %d row %d: |Out|=%d |OutRows|=%d", fix.Name, rank, r, len(av), len(avRows))
				}
				back := make(map[graph.Vertex]bool, len(avRows))
				for i, ur := range avRows {
					if i > 0 && avRows[i-1] >= ur {
						t.Fatalf("%s rank %d row %d: OutRows not strictly ascending", fix.Name, rank, r)
					}
					back[lg.GID(int32(ur))] = true
				}
				for _, u := range av {
					if !back[u] {
						t.Fatalf("%s rank %d row %d: %d missing from row translation", fix.Name, rank, r, u)
					}
				}
				mark.Stamp(avRows)
				for _, ur := range avRows {
					ru := int32(ur)
					want := graph.CountMerge(av, out(ru))
					var wantLocal uint64 // closing vertices owned by this rank
					graph.ForEachCommon(av, out(ru), func(w graph.Vertex) {
						if lg.IsLocal(w) {
							wantLocal++
						}
					})
					hub, probe := ori.Probe(mark, ru)
					if got := probeCount(mark, hub, probe); got != want {
						t.Fatalf("%s rank %d (%d,%d): stamped count=%d, want %d", fix.Name, rank, r, ru, got, want)
					}
					if below, rest := mark.CountListSplit(ori.OutRows(ru), nLoc); below != wantLocal || below+rest != want {
						t.Fatalf("%s rank %d (%d,%d): stamped split=%d+%d, want %d+%d",
							fix.Name, rank, r, ru, below, rest, wantLocal, want-wantLocal)
					}
					var each uint64
					if hub != nil {
						graph.ForEachCommonList(hub, probe, func(uint32) { each++ })
					} else {
						mark.ForEachCommonList(probe, func(uint32) { each++ })
					}
					if each != want {
						t.Fatalf("%s rank %d (%d,%d): stamped for-each=%d, want %d", fix.Name, rank, r, ru, each, want)
					}
					if got := ori.CountRowPair(rv, ru); got != want {
						t.Fatalf("%s rank %d (%d,%d): CountRowPair=%d, want %d", fix.Name, rank, r, ru, got, want)
					}
				}
				mark.Unstamp()
			}
		}
	}
}

// oracleRow resolves x the way the pre-index code did — locals by offset,
// ghosts by binary search over the sorted ghost array — independently of
// the ghost index under test.
func oracleRow(lg *graph.LocalGraph, x graph.Vertex) (int32, bool) {
	if lg.IsLocal(x) {
		return int32(x - lg.First), true
	}
	i, ok := slices.BinarySearch(lg.Ghosts(), x)
	return int32(lg.NLocal() + i), ok
}

// oracleTranslate is TranslateRows over oracleRow: local rows in list
// order, then ghost rows in list order, unknown vertices dropped.
func oracleTranslate(lg *graph.LocalGraph, list []graph.Vertex) (rows []uint64, nLocal int) {
	var gho []uint64
	for _, x := range list {
		switch r, ok := oracleRow(lg, x); {
		case !ok:
		case lg.IsLocal(x):
			rows = append(rows, uint64(r))
		default:
			gho = append(gho, uint64(r))
		}
	}
	return append(rows, gho...), len(rows)
}

// requireGhostIndex checks lg's ghost index against the oracle: every ghost
// resolves to its row, every other probe (locals, IDs that are no row here,
// IDs past n, the extreme values, First and every ghost plus 2³² — which a
// 32-bit narrowing would wrap onto a row) is absent, and TranslateRows agrees with
// oracleTranslate — TranslateRowSet with oracleRow in list order — on every
// row's neighborhood, on the whole ID range, and on the reversed range (out
// of order: nothing may be dropped).
func requireGhostIndex(t *testing.T, tag string, lg *graph.LocalGraph) {
	t.Helper()
	for i, gid := range lg.Ghosts() {
		want := int32(lg.NLocal() + i)
		if row, ok := lg.GhostRow(gid); !ok || row != want {
			t.Fatalf("%s: GhostRow(%d) = (%d,%v), want (%d,true)", tag, gid, row, ok, want)
		}
		if row := lg.Row(gid); row != want {
			t.Fatalf("%s: Row(%d) = %d, want %d", tag, gid, row, want)
		}
	}
	n := lg.Part.N()
	all := make([]graph.Vertex, 0, n+6)
	for x := graph.Vertex(0); x < n+2; x++ {
		all = append(all, x)
	}
	all = append(all, 1<<32, 1<<63, ^graph.Vertex(0)-1, ^graph.Vertex(0), lg.First+1<<32)
	for _, g := range lg.Ghosts() {
		all = append(all, g+1<<32)
	}
	for _, x := range all {
		if _, isGhost := slices.BinarySearch(lg.Ghosts(), x); isGhost {
			continue
		}
		if row, ok := lg.GhostRow(x); ok {
			t.Fatalf("%s: GhostRow(%d) = %d for a non-ghost", tag, x, row)
		}
	}
	var tr graph.RowTranslator
	check := func(what string, list []graph.Vertex) {
		t.Helper()
		got, gotLoc := lg.TranslateRows(&tr, list)
		want, wantLoc := oracleTranslate(lg, list)
		if gotLoc != wantLoc || !sameValues(got, want) {
			t.Fatalf("%s: TranslateRows(%s) = %v (nLocal %d), oracle %v (nLocal %d)",
				tag, what, got, gotLoc, want, wantLoc)
		}
		var wantSet []uint64
		for _, x := range list {
			if r, ok := oracleRow(lg, x); ok {
				wantSet = append(wantSet, uint64(r))
			}
		}
		if set := lg.TranslateRowSet(&tr, list); !sameValues(set, wantSet) {
			t.Fatalf("%s: TranslateRowSet(%s) = %v, oracle %v", tag, what, set, wantSet)
		}
	}
	for r := 0; r < lg.Rows(); r++ {
		check(fmt.Sprintf("row %d", r), rowIDs(lg, int32(r)))
	}
	check("all IDs", all)
	slices.Reverse(all)
	check("all IDs reversed", all)
}

// TestGhostIndexMatchesBinarySearch is the differential suite for the ghost
// index: every fixture × p × threads, BuildLocalPar's view checked by
// requireGhostIndex (stream_test.go does the same for Seal/SealRelease).
func TestGhostIndexMatchesBinarySearch(t *testing.T) {
	for _, fix := range testgraph.All {
		g := fix.Build()
		for _, p := range []int{1, 2, 4, 7} {
			pt := part.Uniform(uint64(g.NumVertices()), p)
			per := graph.ScatterEdges(pt, g.Edges())
			for rank := 0; rank < p; rank++ {
				for _, threads := range []int{1, 4} {
					lg := graph.BuildLocalPar(pt, rank, per[rank], threads)
					requireGhostIndex(t, fmt.Sprintf("%s p=%d rank=%d threads=%d", fix.Name, p, rank, threads), lg)
				}
			}
		}
	}
}
