package graph

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/part"
)

// buildScattered builds every PE's local view of g under a uniform
// partition.
func buildScattered(g *Graph, p int) (*part.Partition, []*LocalGraph) {
	pt := part.Uniform(uint64(g.NumVertices()), p)
	per := ScatterEdges(pt, g.Edges())
	locals := make([]*LocalGraph, p)
	for i := 0; i < p; i++ {
		locals[i] = BuildLocal(pt, i, per[i])
	}
	return pt, locals
}

// rowIDs maps row r's neighbor rows back to global IDs, in their stored
// (ID) order.
func rowIDs(l *LocalGraph, r int32) []Vertex {
	var ids []Vertex
	for _, xr := range l.RowNeighborRows(r) {
		ids = append(ids, l.GID(int32(xr)))
	}
	return ids
}

// cutRows returns, per local row, how many of its neighbors are ghosts.
func cutRows(l *LocalGraph) []int {
	cut := make([]int, l.NLocal())
	for r := range cut {
		for _, xr := range l.RowNeighborRows(int32(r)) {
			if int(xr) >= l.NLocal() {
				cut[r]++
			}
		}
	}
	return cut
}

func TestLocalGraphCoversAllEdges(t *testing.T) {
	g := randomGraph(5, 64, 400)
	for _, p := range []int{1, 2, 3, 5, 8} {
		_, locals := buildScattered(g, p)
		// Every local vertex must see its full neighborhood.
		for _, lg := range locals {
			for r := 0; r < lg.NLocal(); r++ {
				v := lg.GID(int32(r))
				if !slices.Equal(rowIDs(lg, int32(r)), g.Neighbors(v)) {
					t.Fatalf("p=%d: neighborhood of %d differs on PE %d", p, v, lg.Rank)
				}
			}
		}
	}
}

func TestLocalGraphGhosts(t *testing.T) {
	g := randomGraph(9, 60, 300)
	pt, locals := buildScattered(g, 4)
	for _, lg := range locals {
		// Ghosts are exactly the remote endpoints of cut edges.
		want := make(map[Vertex]bool)
		lo, hi := pt.Range(lg.Rank)
		for v := lo; v < hi; v++ {
			for _, u := range g.Neighbors(v) {
				if u < lo || u >= hi {
					want[u] = true
				}
			}
		}
		if len(want) != lg.NGhost() {
			t.Fatalf("PE %d: %d ghosts, want %d", lg.Rank, lg.NGhost(), len(want))
		}
		for _, gid := range lg.Ghosts() {
			if !want[gid] {
				t.Fatalf("PE %d: unexpected ghost %d", lg.Rank, gid)
			}
		}
		// Ghost rows hold exactly the local neighbors.
		for _, gid := range lg.Ghosts() {
			row, ok := lg.GhostRow(gid)
			if !ok {
				t.Fatal("ghost row lookup failed")
			}
			for _, u := range rowIDs(lg, row) {
				if !lg.IsLocal(u) {
					t.Fatalf("ghost row of %d contains non-local %d", gid, u)
				}
				if !g.HasEdge(gid, u) {
					t.Fatalf("ghost row of %d contains non-edge %d", gid, u)
				}
			}
		}
	}
}

func TestLocalGraphRowGIDRoundTrip(t *testing.T) {
	g := randomGraph(13, 48, 200)
	_, locals := buildScattered(g, 3)
	for _, lg := range locals {
		for r := 0; r < lg.Rows(); r++ {
			if lg.Row(lg.GID(int32(r))) != int32(r) {
				t.Fatalf("row/GID round trip failed at row %d", r)
			}
		}
	}
}

func TestCutEdgesSymmetric(t *testing.T) {
	g := randomGraph(21, 80, 500)
	pt, locals := buildScattered(g, 5)
	total := 0
	for _, lg := range locals {
		for _, c := range cutRows(lg) {
			total += c
		}
	}
	// Each cut edge is counted once per side.
	want := 0
	for _, e := range g.Edges() {
		if pt.Rank(e.U) != pt.Rank(e.V) {
			want += 2
		}
	}
	if total != want {
		t.Fatalf("cut edges = %d, want %d", total, want)
	}
}

func TestInterfaceVerticesBound(t *testing.T) {
	g := randomGraph(31, 50, 250)
	_, locals := buildScattered(g, 4)
	for _, lg := range locals {
		iv := 0
		for _, c := range cutRows(lg) {
			if c > 0 {
				iv++
			}
		}
		if iv > lg.NLocal() {
			t.Fatalf("interface %d > locals %d", iv, lg.NLocal())
		}
		if lg.NGhost() > 0 && iv == 0 {
			t.Fatal("ghosts exist but no interface vertices")
		}
	}
}

// TestGhostDegreesAndOrientation checks CETRIC's expansion (rows only,
// read back through GID) and its contraction (both layouts) against the
// global orientation.
func TestGhostDegreesAndOrientation(t *testing.T) {
	g := randomGraph(17, 64, 320)
	_, locals := buildScattered(g, 4)
	// Fill ghost degrees from the global graph (tests the structural code
	// without the exchange).
	for _, lg := range locals {
		for _, gid := range lg.Ghosts() {
			row, _ := lg.GhostRow(gid)
			lg.SetGhostDegree(row, g.Degree(gid))
		}
	}
	globalOri := Orient(g)
	// outIDs is A(row) of o read back through GID, sorted by ID.
	outIDs := func(lg *LocalGraph, o *LocalOriented, row int32) []Vertex {
		var ids []Vertex
		for _, xr := range o.OutRows(row) {
			ids = append(ids, lg.GID(int32(xr)))
		}
		slices.Sort(ids)
		return ids
	}
	for _, lg := range locals {
		ori := OrientLocalPar(lg, 1)
		// Local rows must match the global orientation exactly.
		for r := 0; r < lg.NLocal(); r++ {
			v := lg.GID(int32(r))
			if got, want := outIDs(lg, ori, int32(r)), globalOri.Out(v); !slices.Equal(got, want) {
				t.Fatalf("PE %d: A(%d) = %v, want %v", lg.Rank, v, got, want)
			}
		}
		// Ghost rows must be the local restriction of the global A-list.
		for _, gid := range lg.Ghosts() {
			row, _ := lg.GhostRow(gid)
			var want []Vertex
			for _, x := range globalOri.Out(gid) {
				if lg.IsLocal(x) {
					want = append(want, x)
				}
			}
			if got := outIDs(lg, ori, row); !slices.Equal(got, want) {
				t.Fatalf("PE %d: ghost A(%d) = %v, want %v", lg.Rank, gid, got, want)
			}
		}
		// Contraction keeps exactly the ghost out-neighbors of local rows,
		// ID-sorted in Out and the same entries, in the same order, in
		// OutRows.
		cut := ori.ContractPar(1)
		for r := 0; r < lg.NLocal(); r++ {
			var want []Vertex
			for _, x := range globalOri.Out(lg.GID(int32(r))) {
				if !lg.IsLocal(x) {
					want = append(want, x)
				}
			}
			got := cut.Out(int32(r))
			if !slices.Equal(got, want) {
				t.Fatalf("PE %d row %d: contracted Out = %v, want %v", lg.Rank, r, got, want)
			}
			for k, xr := range cut.OutRows(int32(r)) {
				if lg.GID(int32(xr)) != got[k] {
					t.Fatalf("PE %d row %d: contracted OutRows %v not aligned with Out %v", lg.Rank, r, cut.OutRows(int32(r)), got)
				}
			}
		}
		for r := lg.NLocal(); r < lg.Rows(); r++ {
			if cut.OutDegree(int32(r)) != 0 {
				t.Fatal("ghost row survived contraction")
			}
		}
	}
}

// TestOutPanicsOnRowsOnlyOrientation: the expansion keeps no global IDs, and
// asking it for them names the cause instead of failing on a slice bound.
func TestOutPanicsOnRowsOnlyOrientation(t *testing.T) {
	g := randomGraph(3, 20, 60)
	_, locals := buildScattered(g, 2)
	lg := locals[0]
	for _, gid := range lg.Ghosts() {
		row, _ := lg.GhostRow(gid)
		lg.SetGhostDegree(row, g.Degree(gid))
	}
	ori := OrientLocalPar(lg, 1)
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "rows-only orientation") {
			t.Fatalf("Out on a rows-only orientation: panic %v, want one naming it", r)
		}
	}()
	ori.Out(0)
}

func TestOrientLocalPanicsWithoutGhostDegrees(t *testing.T) {
	g := FromEdges(4, []Edge{{0, 3}})
	pt := part.Uniform(4, 2)
	per := ScatterEdges(pt, g.Edges())
	lg := BuildLocal(pt, 0, per[0])
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic: ghost degrees unknown")
		}
	}()
	OrientLocalPar(lg, 1)
}

func TestScatterEdgesGivesEdgeToBothOwners(t *testing.T) {
	g := randomGraph(41, 30, 90)
	pt := part.Uniform(uint64(g.NumVertices()), 3)
	per := ScatterEdges(pt, g.Edges())
	for _, e := range g.Edges() {
		ru, rv := pt.Rank(e.U), pt.Rank(e.V)
		if !slices.Contains(per[ru], e) {
			t.Fatalf("edge %v missing on owner of U", e)
		}
		if !slices.Contains(per[rv], e) {
			t.Fatalf("edge %v missing on owner of V", e)
		}
	}
}

func TestBuildLocalRejectsForeignEdge(t *testing.T) {
	pt := part.Uniform(10, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for foreign edge")
		}
	}()
	BuildLocal(pt, 0, []Edge{{7, 8}}) // both endpoints on PE 1
}

// TestRowSpaceBoundNamesPE: rows are 4-byte indices, so a PE whose locals
// (or, once the build has discovered them, locals plus ghosts) pass
// MaxRows panics with a message naming it — the slab builder before it
// reads a row or sizes an array.
func TestRowSpaceBoundNamesPE(t *testing.T) {
	wantPanic := func(frag string, f func()) {
		t.Helper()
		defer func() {
			t.Helper()
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), frag) {
				t.Fatalf("panic %v, want one naming %q", r, frag)
			}
		}()
		f()
	}
	checkRowSpace(5, MaxRows) // exactly full: fine
	wantPanic("PE 5 holds 2147483648 rows", func() { checkRowSpace(5, MaxRows+1) })
	wantPanic("PE 3 holds 2147483648 rows", func() {
		buildRows(part.Uniform(1<<33, 4), 3, func(int) []Vertex {
			t.Fatal("row read before the bound was checked")
			return nil
		}, nil, 1)
	})
}
