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

func TestLocalGraphCoversAllEdges(t *testing.T) {
	g := randomGraph(5, 64, 400)
	for _, p := range []int{1, 2, 3, 5, 8} {
		_, locals := buildScattered(g, p)
		// Every local vertex must see its full neighborhood.
		for _, lg := range locals {
			for r := 0; r < lg.NLocal(); r++ {
				v := lg.GID(int32(r))
				if !slices.Equal(lg.RowNeighbors(int32(r)), g.Neighbors(v)) {
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
			for _, u := range lg.RowNeighbors(row) {
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
		total += lg.CutEdges()
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
		iv := lg.InterfaceVertices()
		if iv > lg.NLocal() {
			t.Fatalf("interface %d > locals %d", iv, lg.NLocal())
		}
		if lg.NGhost() > 0 && iv == 0 {
			t.Fatal("ghosts exist but no interface vertices")
		}
	}
}

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
	for _, lg := range locals {
		ori := OrientLocal(lg)
		// Local rows must match the global orientation exactly.
		for r := 0; r < lg.NLocal(); r++ {
			v := lg.GID(int32(r))
			if !slices.Equal(ori.Out(int32(r)), globalOri.Out(v)) {
				t.Fatalf("PE %d: A(%d) = %v, want %v", lg.Rank, v, ori.Out(int32(r)), globalOri.Out(v))
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
			got := ori.Out(row)
			if len(got) != len(want) || (len(want) > 0 && !slices.Equal(got, want)) {
				t.Fatalf("PE %d: ghost A(%d) = %v, want %v", lg.Rank, gid, got, want)
			}
		}
		// Contraction keeps exactly the ghost out-neighbors of local rows.
		cut := ori.Contract()
		for r := 0; r < lg.NLocal(); r++ {
			for _, x := range cut.Out(int32(r)) {
				if lg.IsLocal(x) {
					t.Fatal("contracted list contains a local vertex")
				}
			}
			var want int
			for _, x := range ori.Out(int32(r)) {
				if !lg.IsLocal(x) {
					want++
				}
			}
			if cut.OutDegree(int32(r)) != want {
				t.Fatalf("contracted degree %d, want %d", cut.OutDegree(int32(r)), want)
			}
		}
		for r := lg.NLocal(); r < lg.Rows(); r++ {
			if cut.OutDegree(int32(r)) != 0 {
				t.Fatal("ghost row survived contraction")
			}
		}
	}
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
	OrientLocal(lg)
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
