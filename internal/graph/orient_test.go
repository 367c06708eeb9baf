package graph_test

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/part"
	"repro/internal/testgraph"
)

// The passes that filter adjacency by ≺ keep entries by arithmetic (a write
// per candidate, a cursor that advances by 0 or 1). The loops below are the
// same passes with a plain branch on the keep-test: byte-identity oracles
// for every output array over the 12 fixtures. FuzzOrientation checks the
// same passes against plain filters on graph.Less over arbitrary graphs.
// Every oracle reads the global graph (through naiveLocal), never the local
// view under test.

// flatOriented lays o's rows end to end: offsets, global-ID entries (when
// ids is set, i.e. o keeps Out) and row-space entries.
func flatOriented(o *graph.LocalOriented, ids bool) (off []int64, out []graph.Vertex, rowOut []uint32) {
	off = []int64{0}
	for r := 0; r < o.L.Rows(); r++ {
		if ids {
			out = append(out, o.Out(int32(r))...)
		}
		rowOut = append(rowOut, o.OutRows(int32(r))...)
		off = append(off, int64(len(rowOut)))
	}
	return off, out, rowOut
}

// naiveIDs is the global ID of every row of a naiveView: rank's vertices,
// then its ghosts.
func naiveIDs(pt *part.Partition, rank int, nv naiveView) []graph.Vertex {
	lo, hi := pt.Range(rank)
	var ids []graph.Vertex
	for v := lo; v < hi; v++ {
		ids = append(ids, v)
	}
	return append(ids, nv.ghosts...)
}

// requireRowIDs checks that l numbers its rows as the oracle does, so that
// row-space entries equal to the oracle's carry the oracle's IDs.
func requireRowIDs(t *testing.T, tag string, l *graph.LocalGraph, ids []graph.Vertex) {
	t.Helper()
	if l.Rows() != len(ids) {
		t.Fatalf("%s: %d rows, oracle %d", tag, l.Rows(), len(ids))
	}
	for r, v := range ids {
		if l.GID(int32(r)) != v {
			t.Fatalf("%s: GID(%d) = %d, oracle %d", tag, r, l.GID(int32(r)), v)
		}
	}
}

// branchyOrientLocal orients rows [0, hi) of the oracle view with a branch
// on keep(v, x) (v the row's ID): kept locals go straight to the row-space
// layout, kept ghost rows to a side buffer appended after them.
func branchyOrientLocal(nv naiveView, ids []graph.Vertex, hi int, keep func(v, x graph.Vertex) bool) (off []int64, out, rowOut []graph.Vertex) {
	off = []int64{0}
	nLoc := int32(len(ids) - len(nv.ghosts))
	var ghosts []graph.Vertex
	for r := range nv.rows {
		if r < hi {
			ghosts = ghosts[:0]
			for i, x := range nv.rows[r] {
				xr := nv.rowIdx[r][i]
				if !keep(ids[r], x) {
					continue
				}
				out = append(out, x)
				if xr < nLoc {
					rowOut = append(rowOut, graph.Vertex(xr))
				} else {
					ghosts = append(ghosts, graph.Vertex(xr))
				}
			}
			rowOut = append(rowOut, ghosts...)
		}
		off = append(off, int64(len(out)))
	}
	return off, out, rowOut
}

// degreeKeep is the degree orientation's keep-test on g: v ≺ x.
func degreeKeep(g *graph.Graph) func(v, x graph.Vertex) bool {
	return func(v, x graph.Vertex) bool { return graph.Less(g.Degree(v), v, g.Degree(x), x) }
}

// idKeep is the ID orientation's keep-test: x above v.
func idKeep(v, x graph.Vertex) bool { return x > v }

// branchyBlockCSR is BuildBlockCSR's walk with a branch on the band test
// and then on ≺.
func branchyBlockCSR(g2 *part.Grid2D, rank int, g *graph.Graph) (off []int64, col []graph.Vertex) {
	a, bc := g2.RowCol(rank)
	c, res := graph.Vertex(g2.C()), graph.Vertex(bc)
	off = []int64{0}
	for rel := 0; rel < g2.BandSizeRow(a); rel++ {
		u := g2.GIDRow(a, graph.Vertex(rel))
		nb := g.Neighbors(u)
		for _, v := range nb {
			if v%c == res && graph.Less(len(nb), u, g.Degree(v), v) {
				col = append(col, v/c)
			}
		}
		off = append(off, int64(len(col)))
	}
	return off, col
}

// flatBlock lays b's rows end to end.
func flatBlock(b *graph.Block) (off []int64, col []uint32) {
	off = []int64{0}
	for rel := 0; rel < b.NRows(); rel++ {
		col = append(col, b.Row(rel)...)
		off = append(off, int64(len(col)))
	}
	return off, col
}

// branchyOrient is Orient's placement with a branch on Less, one out-list
// per vertex.
func branchyOrient(g *graph.Graph) [][]graph.Vertex {
	out := make([][]graph.Vertex, g.NumVertices())
	for v := range out {
		dv := g.Degree(graph.Vertex(v))
		for _, u := range g.Neighbors(graph.Vertex(v)) {
			if graph.Less(dv, graph.Vertex(v), g.Degree(u), u) {
				out[v] = append(out[v], u)
			}
		}
	}
	return out
}

// requireFlatEqual compares a flat layout with its branchy oracle: offsets
// and global IDs exactly, the 4-byte row entries value for value against
// the oracle's 64-bit ones.
func requireFlatEqual(t *testing.T, tag string, wantOff, gotOff []int64, wantIDs, gotIDs, wantRows []graph.Vertex, gotRows []uint32) {
	t.Helper()
	if !slices.Equal(wantOff, gotOff) {
		t.Fatalf("%s: offsets differ", tag)
	}
	if !slices.Equal(wantIDs, gotIDs) {
		t.Fatalf("%s: global-ID entries differ", tag)
	}
	if !sameValues(gotRows, wantRows) {
		t.Fatalf("%s: row entries differ", tag)
	}
}

// TestOrientationMatchesBranchyLoops: on every fixture, every p, rank and
// thread count, the branch-free passes produce byte-identical arrays to
// the branchy loops — OrientLocalPar (off, rowOut), OrientLocalOnlyPar and
// OrientLocalByIDPar (off, out, rowOut), BuildBlockCSR (off, col) and
// Orient (every out-list).
func TestOrientationMatchesBranchyLoops(t *testing.T) {
	for _, fix := range testgraph.All {
		g := fix.Build()
		n := uint64(g.NumVertices())
		want := branchyOrient(g)
		o := graph.Orient(g)
		for v := range want {
			if !slices.Equal(want[v], o.Out(graph.Vertex(v))) {
				t.Fatalf("%s: Orient row %d = %v, branchy %v", fix.Name, v, o.Out(graph.Vertex(v)), want[v])
			}
		}
		edges := g.Edges()
		for _, p := range []int{1, 2, 4, 7, 9} {
			pt := part.Uniform(n, p)
			g2, err := part.NewGrid2D(n, p)
			if err != nil {
				t.Fatal(err)
			}
			for rank := 0; rank < p; rank++ {
				nv := naiveLocal(pt, rank, edges)
				ids := naiveIDs(pt, rank, nv)
				wantOff, wantCol := branchyBlockCSR(g2, rank, g)
				for _, threads := range []int{1, 3} {
					tag := fmt.Sprintf("%s p=%d rank=%d threads=%d", fix.Name, p, rank, threads)
					gotOff, gotCol := flatBlock(graph.BuildBlockCSR(g2, rank, g, threads))
					requireFlatEqual(t, tag+" block", wantOff, gotOff, nil, nil, wantCol, gotCol)

					lg := graph.BuildLocalCSR(pt, rank, g, threads)
					setGhostDegrees(lg, g)
					requireRowIDs(t, tag, lg, ids)
					for _, c := range []struct {
						name string
						hi   int
						keep func(v, x graph.Vertex) bool
						got  *graph.LocalOriented
						ids  bool
					}{
						{"orient", lg.Rows(), degreeKeep(g), graph.OrientLocalPar(lg, threads), false},
						{"local-only", lg.NLocal(), degreeKeep(g), graph.OrientLocalOnlyPar(lg, threads), true},
						{"by-id", lg.Rows(), idKeep, graph.OrientLocalByIDPar(lg, threads), true},
					} {
						wOff, wOut, wRow := branchyOrientLocal(nv, ids, c.hi, c.keep)
						gOff, gOut, gRow := flatOriented(c.got, c.ids)
						if !c.ids {
							wOut = nil
						}
						requireFlatEqual(t, tag+" "+c.name, wOff, gOff, wOut, gOut, wRow, gRow)
					}
				}
			}
		}
	}
}

// requireFilteredOriented checks o against a plain filter of the oracle
// view's rows: row r < hi holds exactly the x ∈ N(r) with keep(v, x), v the
// row's ID, and its row-space list is the oracle's rows of that set,
// strictly ascending; rows ≥ hi are empty. Out, when ids is set, is the set
// ascending by ID; otherwise the row-space list is read back through GID.
func requireFilteredOriented(t *testing.T, tag string, nv naiveView, ids []graph.Vertex, l *graph.LocalGraph, o *graph.LocalOriented, hi int, keep func(v, x graph.Vertex) bool, withIDs bool) {
	t.Helper()
	requireRowIDs(t, tag, l, ids)
	for r := int32(0); int(r) < l.Rows(); r++ {
		var want []graph.Vertex
		var wantRows []int32
		if int(r) < hi {
			for i, x := range nv.rows[r] {
				if keep(ids[r], x) {
					want = append(want, x)
					wantRows = append(wantRows, nv.rowIdx[r][i])
				}
			}
		}
		slices.Sort(wantRows)
		rows := o.OutRows(r)
		if !slices.EqualFunc(rows, wantRows, func(a uint32, b int32) bool { return int64(a) == int64(b) }) {
			t.Fatalf("%s row %d: OutRows = %v, want %v", tag, r, rows, wantRows)
		}
		for i := 1; i < len(rows); i++ {
			if rows[i] <= rows[i-1] {
				t.Fatalf("%s row %d: OutRows = %v not strictly ascending", tag, r, rows)
			}
		}
		var got []graph.Vertex
		if withIDs {
			got = o.Out(r)
		} else {
			for _, xr := range rows {
				got = append(got, l.GID(int32(xr)))
			}
			slices.Sort(got)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s row %d: Out = %v, filter %v", tag, r, got, want)
		}
	}
}

// requireContracted checks ContractPar's result against the oracle: a local
// row keeps the ghosts of its degree-oriented list, ascending by ID in Out
// and aligned with them in OutRows; ghost rows are empty.
func requireContracted(t *testing.T, tag string, nv naiveView, ids []graph.Vertex, cut *graph.LocalOriented, keep func(v, x graph.Vertex) bool) {
	t.Helper()
	nLoc := len(ids) - len(nv.ghosts)
	for r := range nv.rows {
		var want []graph.Vertex
		var wantRows []uint32
		if r < nLoc {
			for i, x := range nv.rows[r] {
				if xr := nv.rowIdx[r][i]; int(xr) >= nLoc && keep(ids[r], x) {
					want = append(want, x)
					wantRows = append(wantRows, uint32(xr))
				}
			}
		}
		if got := cut.Out(int32(r)); !slices.Equal(got, want) {
			t.Fatalf("%s row %d: contracted Out = %v, want %v", tag, r, got, want)
		}
		if got := cut.OutRows(int32(r)); !slices.Equal(got, wantRows) {
			t.Fatalf("%s row %d: contracted OutRows = %v, want %v", tag, r, got, wantRows)
		}
	}
}

// fuzzEdges encodes an edge list the way FuzzOrientation decodes it.
func fuzzEdges(edges ...[2]uint16) []byte {
	var data []byte
	for _, e := range edges {
		data = binary.LittleEndian.AppendUint16(data, e[0])
		data = binary.LittleEndian.AppendUint16(data, e[1])
	}
	return data
}

// FuzzOrientation drives every ≺ filter over an arbitrary graph (16-bit
// endpoint pairs mod n; self-loops and duplicates are FromEdges' to drop),
// an arbitrary p, rank and thread count: OrientLocalPar (and its
// contraction), OrientLocalOnlyPar, BuildBlockCSR and Orient must match a
// filter on graph.Less, and OrientLocalByIDPar a filter on x > v. The seeds cover rank 0 (no ghost
// below the range), the last rank (none above), a middle rank whose rows
// reach ghosts on both sides, rows that hold only ghosts, empty rows, and
// p = 1.
func FuzzOrientation(f *testing.F) {
	star := fuzzEdges([2]uint16{0, 5}, [2]uint16{0, 6}, [2]uint16{0, 7}, [2]uint16{1, 2}, [2]uint16{5, 6})
	both := fuzzEdges([2]uint16{4, 0}, [2]uint16{4, 1}, [2]uint16{4, 8}, [2]uint16{3, 8}, [2]uint16{0, 8}, [2]uint16{3, 4})
	f.Add(star, uint16(8), uint8(2), uint8(0), uint8(1))     // rank 0; row 0 is all ghosts
	f.Add(star, uint16(8), uint8(2), uint8(1), uint8(2))     // last rank
	f.Add(both, uint16(9), uint8(3), uint8(1), uint8(1))     // ghosts below and above
	f.Add(both, uint16(40), uint8(4), uint8(2), uint8(3))    // mostly empty rows
	f.Add(both, uint16(9), uint8(1), uint8(0), uint8(2))     // p = 1
	f.Add([]byte{}, uint16(5), uint8(3), uint8(2), uint8(1)) // no edges
	f.Fuzz(func(t *testing.T, data []byte, nRaw uint16, pRaw, rankRaw, thRaw uint8) {
		n := uint64(nRaw%300) + 1
		p := int(pRaw%9) + 1
		rank, threads := int(rankRaw)%p, int(thRaw%4)+1
		var edges []graph.Edge
		for i := 0; i+3 < len(data); i += 4 {
			edges = append(edges, graph.Edge{
				U: uint64(binary.LittleEndian.Uint16(data[i:])) % n,
				V: uint64(binary.LittleEndian.Uint16(data[i+2:])) % n,
			})
		}
		g := graph.FromEdges(int(n), edges)
		tag := fmt.Sprintf("n=%d p=%d rank=%d threads=%d", n, p, rank, threads)

		pt := part.Uniform(n, p)
		nv := naiveLocal(pt, rank, g.Edges())
		ids := naiveIDs(pt, rank, nv)
		lg := graph.BuildLocalCSR(pt, rank, g, threads)
		setGhostDegrees(lg, g)
		less := degreeKeep(g)
		ori := graph.OrientLocalPar(lg, threads)
		requireFilteredOriented(t, tag+" orient", nv, ids, lg, ori, lg.Rows(), less, false)
		requireContracted(t, tag+" contract", nv, ids, ori.ContractPar(threads), less)
		requireFilteredOriented(t, tag+" local-only", nv, ids, lg, graph.OrientLocalOnlyPar(lg, threads), lg.NLocal(), less, true)
		requireFilteredOriented(t, tag+" by-id", nv, ids, lg, graph.OrientLocalByIDPar(lg, threads), lg.Rows(), idKeep, true)

		g2, err := part.NewGrid2D(n, p)
		if err != nil {
			t.Fatal(err)
		}
		a, bc := g2.RowCol(rank)
		b := graph.BuildBlockCSR(g2, rank, g, threads)
		for rel := 0; rel < b.NRows(); rel++ {
			u := g2.GIDRow(a, graph.Vertex(rel))
			var want []graph.Vertex
			for _, v := range g.Neighbors(u) {
				if g2.BandCol(v) == bc && graph.Less(g.Degree(u), u, g.Degree(v), v) {
					want = append(want, g2.RelCol(v))
				}
			}
			if got := b.Row(rel); !sameValues(got, want) {
				t.Fatalf("%s block row %d: %v, filter %v", tag, rel, got, want)
			}
		}

		o := graph.Orient(g)
		for v := graph.Vertex(0); v < graph.Vertex(n); v++ {
			var want []graph.Vertex
			for _, u := range g.Neighbors(v) {
				if graph.Less(g.Degree(v), v, g.Degree(u), u) {
					want = append(want, u)
				}
			}
			if got := o.Out(v); !slices.Equal(got, want) {
				t.Fatalf("%s Orient row %d: %v, filter %v", tag, v, got, want)
			}
		}
	})
}
