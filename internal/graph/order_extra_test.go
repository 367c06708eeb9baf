package graph

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestEdgeCanon(t *testing.T) {
	if (Edge{5, 2}).Canon() != (Edge{2, 5}) {
		t.Fatal("Canon should order endpoints")
	}
	if (Edge{2, 5}).Canon() != (Edge{2, 5}) {
		t.Fatal("Canon should keep ordered endpoints")
	}
}

func TestFromSortedAdjacency(t *testing.T) {
	// Triangle 0-1-2 as prebuilt CSR.
	off := []int64{0, 2, 4, 6}
	adj := []Vertex{1, 2, 0, 2, 0, 1}
	g := FromSortedAdjacency(off, adj)
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("shape %d/%d", g.NumVertices(), g.NumEdges())
	}
	if !g.HasEdge(0, 2) {
		t.Fatal("edge missing")
	}
}

func TestOrientLocalOnlyGhostRowsEmpty(t *testing.T) {
	g := randomGraph(19, 60, 280)
	_, locals := buildScattered(g, 4)
	for _, lg := range locals {
		for _, gid := range lg.Ghosts() {
			row, _ := lg.GhostRow(gid)
			lg.SetGhostDegree(row, g.Degree(gid))
		}
		ori := OrientLocalOnlyPar(lg, 1)
		for r := lg.NLocal(); r < lg.Rows(); r++ {
			if ori.OutDegree(int32(r)) != 0 {
				t.Fatal("OrientLocalOnlyPar must leave ghost rows empty")
			}
		}
		// Local rows must match the full orientation, and Out must be
		// their IDs, ascending.
		full := OrientLocalPar(lg, 1)
		for r := 0; r < lg.NLocal(); r++ {
			if !slices.Equal(ori.OutRows(int32(r)), full.OutRows(int32(r))) {
				t.Fatal("local rows differ between OrientLocalOnlyPar and OrientLocalPar")
			}
			var ids []Vertex
			for _, xr := range full.OutRows(int32(r)) {
				ids = append(ids, lg.GID(int32(xr)))
			}
			slices.Sort(ids)
			if !slices.Equal(ori.Out(int32(r)), ids) {
				t.Fatalf("row %d: Out = %v, IDs of OutRows %v", r, ori.Out(int32(r)), ids)
			}
		}
	}
}

func TestOrientLocalByIDNoDegreesNeeded(t *testing.T) {
	// ID orientation must work without the ghost degree exchange.
	g := randomGraph(23, 40, 200)
	_, locals := buildScattered(g, 3)
	for _, lg := range locals {
		ori := OrientLocalByIDPar(lg, 1) // no SetGhostDegree calls
		for r := 0; r < lg.Rows(); r++ {
			v := lg.GID(int32(r))
			for _, u := range ori.Out(int32(r)) {
				if u <= v {
					t.Fatalf("ID orientation violated: %d -> %d", v, u)
				}
			}
		}
	}
}

func TestLocalOrientedTotalOut(t *testing.T) {
	g := randomGraph(29, 50, 240)
	_, locals := buildScattered(g, 2)
	total := 0
	for _, lg := range locals {
		for _, gid := range lg.Ghosts() {
			row, _ := lg.GhostRow(gid)
			lg.SetGhostDegree(row, g.Degree(gid))
		}
		ori := OrientLocalOnlyPar(lg, 1)
		for r := 0; r < lg.Rows(); r++ {
			total += ori.OutDegree(int32(r))
		}
	}
	// Each undirected edge is oriented exactly once from its ≺-smaller
	// endpoint, which lives on exactly one PE's local rows — except cut
	// edges, which appear once on the ≺-smaller endpoint's PE only.
	if total != g.NumEdges() {
		t.Fatalf("Σ local out-degrees = %d, want m = %d", total, g.NumEdges())
	}
}

func TestIntersectionPropertiesQuick(t *testing.T) {
	// |A∩B| symmetric, bounded by min lengths, and |A∩A| = |A|.
	check := func(seed uint64) bool {
		s := seed
		next := func() uint64 {
			s += 0x9E3779B97F4A7C15
			z := s
			z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
			return z ^ (z >> 31)
		}
		mk := func(n int) []Vertex {
			set := map[uint64]struct{}{}
			for len(set) < n {
				set[next()%512] = struct{}{}
			}
			out := make([]Vertex, 0, n)
			for v := range set {
				out = append(out, v)
			}
			slices.Sort(out)
			return out
		}
		a := mk(1 + int(next()%100))
		b := mk(1 + int(next()%100))
		ab := CountIntersect(a, b)
		ba := CountIntersect(b, a)
		if ab != ba {
			return false
		}
		if ab > uint64(len(a)) || ab > uint64(len(b)) {
			return false
		}
		return CountIntersect(a, a) == uint64(len(a))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
