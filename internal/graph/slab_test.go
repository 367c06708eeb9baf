package graph_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/part"
	"repro/internal/testgraph"
)

// naiveView is what a PE's local view must contain, held in plain maps and
// slices: the oracle side of the builder matrix below.
type naiveView struct {
	ghosts []graph.Vertex
	rows   [][]graph.Vertex // locals in ID order, then ghosts in ID order
	rowIdx [][]int32        // rows, translated
	deg    []int
}

// naiveLocal derives rank's view from an edge list with nothing but maps and
// sorts: independent of the row-slab builder, the ghost index and the CSR.
func naiveLocal(pt *part.Partition, rank int, edges []graph.Edge) naiveView {
	lo, hi := pt.Range(rank)
	local := func(v graph.Vertex) bool { return v >= lo && v < hi }
	nbr := make(map[graph.Vertex]map[graph.Vertex]bool)
	add := func(a, b graph.Vertex) {
		if nbr[a] == nil {
			nbr[a] = make(map[graph.Vertex]bool)
		}
		nbr[a][b] = true
	}
	var nv naiveView
	for _, e := range edges {
		if e.U != e.V && (local(e.U) || local(e.V)) {
			add(e.U, e.V)
			add(e.V, e.U)
		}
	}
	for v := range nbr {
		if !local(v) {
			nv.ghosts = append(nv.ghosts, v)
		}
	}
	slices.Sort(nv.ghosts)
	ids := make([]graph.Vertex, 0, int(hi-lo)+len(nv.ghosts))
	rowOf := make(map[graph.Vertex]int32)
	for v := lo; v < hi; v++ {
		ids = append(ids, v)
	}
	ids = append(ids, nv.ghosts...)
	for r, v := range ids {
		rowOf[v] = int32(r)
	}
	for _, v := range ids {
		row := make([]graph.Vertex, 0, len(nbr[v]))
		for u := range nbr[v] {
			row = append(row, u)
		}
		slices.Sort(row)
		idx := make([]int32, len(row))
		for k, u := range row {
			idx[k] = rowOf[u]
		}
		d := -1
		if local(v) {
			d = len(row)
		}
		nv.rows, nv.rowIdx, nv.deg = append(nv.rows, row), append(nv.rowIdx, idx), append(nv.deg, d)
	}
	return nv
}

func requireMatchesNaive(t *testing.T, tag string, got *graph.LocalGraph, want naiveView) {
	t.Helper()
	if !slices.Equal(got.Ghosts(), want.ghosts) {
		t.Fatalf("%s: ghosts %v, oracle %v", tag, got.Ghosts(), want.ghosts)
	}
	if got.Rows() != len(want.rows) {
		t.Fatalf("%s: %d rows, oracle %d", tag, got.Rows(), len(want.rows))
	}
	for r := range want.rows {
		if ids := rowIDs(got, int32(r)); !slices.Equal(ids, want.rows[r]) {
			t.Fatalf("%s: row %d = %v, oracle %v", tag, r, ids, want.rows[r])
		}
		if !slices.EqualFunc(got.RowNeighborRows(int32(r)), want.rowIdx[r], func(g uint32, w int32) bool { return int64(g) == int64(w) }) {
			t.Fatalf("%s: row %d translates to %v, oracle %v", tag, r, got.RowNeighborRows(int32(r)), want.rowIdx[r])
		}
		if got.Degree(int32(r)) != want.deg[r] {
			t.Fatalf("%s: row %d degree %d, oracle %d", tag, r, got.Degree(int32(r)), want.deg[r])
		}
	}
}

// quadraticPartition splits n vertices over p PEs at the boundaries
// n·i²/p², so range widths grow with rank and the low ranks get tiny or
// empty ranges; with reverse the widths shrink with rank instead.
func quadraticPartition(t *testing.T, n uint64, p int, reverse bool) *part.Partition {
	t.Helper()
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
		t.Fatal(err)
	}
	return pt
}

// TestLocalBuildersAgree is the builder matrix: on every fixture × p ×
// partition × rank, the CSR-slab build is checked against the map oracle,
// and at every thread count the from-edges front end, Seal and SealRelease
// must reproduce it entry for entry with a sound ghost index. Quadratic
// boundaries give PEs with no rows at all; p = 1 and the sparse fixture give
// PEs with no ghosts. The views of PEs with ghosts take both layouts of the
// ghost index, the dense table and the hash, and the matrix must see both.
func TestLocalBuildersAgree(t *testing.T) {
	emptyPEs, ghostlessPEs := 0, 0
	layouts := map[bool]int{} // ghost-index layout (dense?) -> builds of PEs with ghosts
	count := func(lg *graph.LocalGraph) *graph.LocalGraph {
		if lg.NGhost() > 0 {
			layouts[lg.DenseGhostIndex()]++
		}
		return lg
	}
	for _, fx := range testgraph.All {
		g := fx.Build()
		edges := g.Edges()
		n := g.NumVertices()
		for _, p := range []int{1, 2, 3, 5, 8} {
			for pname, pt := range map[string]*part.Partition{
				"uniform":   part.Uniform(uint64(n), p),
				"quadratic": quadraticPartition(t, uint64(n), p, false),
				"reversed":  quadraticPartition(t, uint64(n), p, true),
			} {
				per := graph.ScatterEdges(pt, edges)
				for rank := 0; rank < p; rank++ {
					tag := fmt.Sprintf("%s p=%d %s rank=%d", fx.Name, p, pname, rank)
					want := graph.BuildLocalCSR(pt, rank, g, 1)
					requireMatchesNaive(t, tag, want, naiveLocal(pt, rank, edges))
					if want.NLocal() == 0 {
						emptyPEs++
					}
					if want.NGhost() == 0 {
						ghostlessPEs++
					}
					for _, threads := range equivThreads {
						tag := fmt.Sprintf("%s threads=%d", tag, threads)
						requireLocalGraphsEqual(t, tag+" csr", count(graph.BuildLocalCSR(pt, rank, g, threads)), want)
						requireLocalGraphsEqual(t, tag+" edges", count(graph.BuildLocalPar(pt, rank, per[rank], threads)), want)
						for _, release := range []bool{false, true} {
							sb := graph.NewStreamBuilder(pt, rank)
							sb.Fold(per[rank], threads)
							got := sb.Seal
							if release {
								got = sb.SealRelease
							}
							requireLocalGraphsEqual(t, fmt.Sprintf("%s seal(release=%v)", tag, release), count(got(threads)), want)
						}
					}
				}
			}
		}
	}
	if emptyPEs == 0 || ghostlessPEs == 0 {
		t.Fatalf("matrix saw %d PEs without rows and %d without ghosts; it must cover both", emptyPEs, ghostlessPEs)
	}
	t.Logf("ghost-index layouts: %d dense, %d hash builds", layouts[true], layouts[false])
	if layouts[true] == 0 || layouts[false] == 0 {
		t.Fatalf("matrix built %d dense and %d hash ghost indexes; it must reach both layouts", layouts[true], layouts[false])
	}
}

var buildSink *graph.LocalGraph // keeps the benchmarked builds observable

// BenchmarkBuildLocal times the build of all four ranks' views, one thread,
// on the 1D one-shot inputs of BENCHMARK.json, through both front ends of
// the row-slab builder: csr reads each rank's rows of the global CSR in
// place (what core.Run does), edges buckets and sorts the rank's scattered
// edge slice first (what the cmd/bench probe times; the scatter is outside
// the clock).
func BenchmarkBuildLocal(b *testing.B) {
	const p = 4
	for _, in := range []struct {
		name string
		g    *graph.Graph
	}{
		{"rgg2d", gen.RGG2D(1<<17, 16, 42)},
		{"rmat", gen.RMAT(gen.DefaultRMAT(16, 42))},
		{"gnm", gen.GNM(1<<15, 1<<19, 42)},
	} {
		pt := part.Uniform(uint64(in.g.NumVertices()), p)
		b.Run("csr/"+in.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for rank := 0; rank < p; rank++ {
					buildSink = graph.BuildLocalCSR(pt, rank, in.g, 1)
				}
			}
		})
		b.Run("edges/"+in.name, func(b *testing.B) {
			per := graph.ScatterEdges(pt, in.g.Edges())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for rank := 0; rank < p; rank++ {
					buildSink = graph.BuildLocalPar(pt, rank, per[rank], 1)
				}
			}
		})
	}
}

var blockSink *graph.Block // keeps the benchmarked block builds observable

// BenchmarkBuildBlock times the build of all four ranks' ≺-oriented blocks,
// one thread, on the 2×2 grid of BENCHMARK.json's rmat_tk2d row (and a
// degree-flat GNM beside it), straight from the global CSR — what core.Run
// does; the cmd/bench probe behind graph.block_build_ns_per_edge still times
// the ID-oriented edge-list builder (ScatterEdges2D + BuildBlock2D).
func BenchmarkBuildBlock(b *testing.B) {
	const p = 4
	for _, in := range []struct {
		name string
		g    *graph.Graph
	}{
		{"rmat", gen.RMAT(gen.DefaultRMAT(16, 42))},
		{"gnm", gen.GNM(1<<15, 1<<19, 42)},
	} {
		g2, err := part.NewGrid2D(uint64(in.g.NumVertices()), p)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("csr/"+in.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for rank := 0; rank < p; rank++ {
					blockSink = graph.BuildBlockCSR(g2, rank, in.g, 1)
				}
			}
		})
	}
}
