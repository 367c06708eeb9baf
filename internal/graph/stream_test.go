package graph_test

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/part"
	"repro/internal/testgraph"
)

// Streaming-build equivalence: folding a rank's scattered edges batch by
// batch and sealing must reproduce the one-shot build of the same edges
// exactly (slab_test.go holds the full builder matrix).

var streamPs = []int{1, 2, 4, 8}
var streamBatches = []int{1, 7, 97, 1 << 20}

// requireLocalGraphsEqual compares two local views through the accessor
// surface the counting phases use, and checks got's own ghost index (Seal
// builds one separately from BuildLocalPar).
func requireLocalGraphsEqual(t *testing.T, tag string, got, want *graph.LocalGraph) {
	t.Helper()
	requireGhostIndex(t, tag, got)
	if got.NLocal() != want.NLocal() || got.NGhost() != want.NGhost() {
		t.Fatalf("%s: shape (%d,%d), want (%d,%d)",
			tag, got.NLocal(), got.NGhost(), want.NLocal(), want.NGhost())
	}
	gg, wg := got.Ghosts(), want.Ghosts()
	for i := range wg {
		if gg[i] != wg[i] {
			t.Fatalf("%s: ghost %d = %d, want %d", tag, i, gg[i], wg[i])
		}
	}
	for r := 0; r < want.Rows(); r++ {
		if got.GID(int32(r)) != want.GID(int32(r)) {
			t.Fatalf("%s: row %d ID = %d, want %d", tag, r, got.GID(int32(r)), want.GID(int32(r)))
		}
		grr, wrr := got.RowNeighborRows(int32(r)), want.RowNeighborRows(int32(r))
		if len(grr) != len(wrr) {
			t.Fatalf("%s: row %d has %d entries, want %d", tag, r, len(grr), len(wrr))
		}
		for i := range wrr {
			if grr[i] != wrr[i] {
				t.Fatalf("%s: row %d row-entry %d = %d, want %d", tag, r, i, grr[i], wrr[i])
			}
		}
		if got.Degree(int32(r)) != want.Degree(int32(r)) {
			t.Fatalf("%s: row %d degree %d, want %d", tag, r, got.Degree(int32(r)), want.Degree(int32(r)))
		}
	}
}

func TestStreamBuilderSealMatchesBuildLocalPar(t *testing.T) {
	for _, fx := range testgraph.All {
		g := fx.Build()
		edges := g.Edges()
		for _, p := range streamPs {
			pt := part.Uniform(uint64(g.NumVertices()), p)
			slices := graph.ScatterEdgesPar(pt, edges, 1)
			for rank := 0; rank < p; rank++ {
				want := graph.BuildLocalPar(pt, rank, slices[rank], 1)
				for _, batch := range streamBatches {
					for _, threads := range []int{1, 3} {
						sb := graph.NewStreamBuilder(pt, rank)
						mine := slices[rank]
						for lo := 0; lo < len(mine); lo += batch {
							sb.Fold(mine[lo:min(lo+batch, len(mine))], threads)
						}
						got := sb.Seal(threads)
						requireLocalGraphsEqual(t, fx.Name, got, want)
					}
				}
			}
		}
	}
}

// TestStreamBuilderSealShuffled checks that arrival order does not matter:
// the sealed view of a shuffled, duplicated edge stream equals the ordered
// build.
func TestStreamBuilderSealShuffled(t *testing.T) {
	g := testgraph.All[0].Build()
	edges := g.Edges()
	pt := part.Uniform(uint64(g.NumVertices()), 4)
	want := graph.BuildLocalPar(pt, 1, graph.ScatterEdgesPar(pt, edges, 1)[1], 1)

	rng := rand.New(rand.NewSource(7))
	stream := append(append([]graph.Edge{}, edges...), edges[:len(edges)/2]...) // re-sent edges
	rng.Shuffle(len(stream), func(i, j int) { stream[i], stream[j] = stream[j], stream[i] })
	sb := graph.NewStreamBuilder(pt, 1)
	for lo := 0; lo < len(stream); lo += 13 {
		batch := stream[lo:min(lo+13, len(stream))]
		sb.Fold(graph.ScatterEdges(pt, batch)[1], 1)
	}
	requireLocalGraphsEqual(t, "shuffled", sb.Seal(1), want)
}

// TestStreamBuilderSealRelease checks the releasing variant produces the
// identical view and leaves the builder spent.
func TestStreamBuilderSealRelease(t *testing.T) {
	for _, fx := range testgraph.All[:4] {
		g := fx.Build()
		edges := g.Edges()
		pt := part.Uniform(uint64(g.NumVertices()), 4)
		slices := graph.ScatterEdgesPar(pt, edges, 1)
		for rank := 0; rank < 4; rank++ {
			want := graph.BuildLocalPar(pt, rank, slices[rank], 1)
			for _, threads := range []int{1, 3} {
				sb := graph.NewStreamBuilder(pt, rank)
				mine := slices[rank]
				for lo := 0; lo < len(mine); lo += 29 {
					sb.Fold(mine[lo:min(lo+29, len(mine))], 1)
				}
				requireLocalGraphsEqual(t, fx.Name+"/release", sb.SealRelease(threads), want)
			}
		}
	}
	// A released builder is spent: staging into it must panic.
	pt := part.Uniform(8, 2)
	sb := graph.NewStreamBuilder(pt, 0)
	sb.Fold([]graph.Edge{{U: 0, V: 5}}, 1)
	sb.SealRelease(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic staging into a released builder")
		}
	}()
	sb.Stage([]graph.Edge{{U: 1, V: 2}}, 1)
}

func TestStreamBuilderStageSemantics(t *testing.T) {
	pt := part.Uniform(8, 2) // rank 0 owns [0,4)
	sb := graph.NewStreamBuilder(pt, 0)
	sb.Fold([]graph.Edge{{U: 0, V: 1}, {U: 1, V: 5}}, 1)
	if sb.Entries() != 3 { // 0-1 twice, 1-5 once
		t.Fatalf("resident entries = %d, want 3", sb.Entries())
	}

	// Batch: a self-loop (dropped), a duplicate of a resident edge
	// (subtracted), an intra-batch duplicate (deduplicated), and new edges.
	sb.Stage([]graph.Edge{
		{U: 2, V: 2},         // self-loop
		{U: 0, V: 1},         // resident duplicate
		{U: 1, V: 6}, {6, 1}, // intra-batch duplicate
		{U: 0, V: 7}, // new cut edge
	}, 1)
	staged := 0
	for _, r := range sb.Staged() {
		staged += len(sb.StagedRowOf(r))
	}
	if staged != 2 {
		t.Fatalf("staged entries = %d, want 2", staged)
	}
	if d := sb.StagedRowOf(1); len(d) != 1 || d[0] != 6 {
		t.Fatalf("Δ(1) = %v, want [6]", d)
	}
	if d := sb.StagedRowOf(0); len(d) != 1 || d[0] != 7 {
		t.Fatalf("Δ(0) = %v, want [7]", d)
	}
	// Resident rows unchanged until Commit.
	if r := sb.Row(1); len(r) != 2 {
		t.Fatalf("pre-commit row 1 = %v, want 2 entries", r)
	}
	sb.Commit(1)
	if r := sb.Row(1); len(r) != 3 || r[0] != 0 || r[1] != 5 || r[2] != 6 {
		t.Fatalf("post-commit row 1 = %v, want [0 5 6]", r)
	}
	if sb.Entries() != 5 {
		t.Fatalf("post-commit entries = %d, want 5", sb.Entries())
	}
	if len(sb.Staged()) != 0 {
		t.Fatalf("staged rows not cleared: %v", sb.Staged())
	}
}

func TestStreamBuilderMisuse(t *testing.T) {
	requirePanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	pt := part.Uniform(8, 2)
	sb := graph.NewStreamBuilder(pt, 0)
	sb.Stage([]graph.Edge{{U: 0, V: 1}}, 1)
	requirePanic("double stage", func() { sb.Stage(nil, 1) })
	requirePanic("seal with staged", func() { sb.Seal(1) })
	sb.Commit(1)
	requirePanic("commit without stage", func() { sb.Commit(1) })
	requirePanic("foreign edge", func() { sb.Stage([]graph.Edge{{U: 5, V: 6}}, 1) })
}

// TestStreamBuilderRowBitmaps: a builder keeps no row bitmaps before Seal;
// from Seal on, after every Commit, exactly the rows of at least
// BitsetWords(n) entries have one, each holds exactly its row's IDs, and a
// PE's bitmap words stay within its resident entries.
func TestStreamBuilderRowBitmaps(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 3))
	edges := g.Edges()
	rand.New(rand.NewSource(4)).Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	n := g.NumVertices()
	stride := graph.BitsetWords(n)
	for _, p := range []int{1, 2, 4} {
		pt := part.Uniform(uint64(n), p)
		for rank := 0; rank < p; rank++ {
			for _, threads := range []int{1, 3} {
				sb := graph.NewStreamBuilder(pt, rank)
				check := func(when string, sealed bool) {
					t.Helper()
					words := 0
					for r := int32(0); r < int32(sb.NLocal()); r++ {
						row, bm := sb.Row(r), sb.RowBitmap(r)
						if want := sealed && len(row) >= stride; (bm != nil) != want {
							t.Fatalf("p=%d rank=%d %s: row %d of %d entries has bitmap=%v, want %v", p, rank, when, r, len(row), bm != nil, want)
						}
						if bm == nil {
							continue
						}
						words += len(bm)
						set := uint64(0)
						for _, w := range bm {
							set += uint64(bits.OnesCount64(w))
						}
						if set != uint64(len(row)) || graph.CountList(bm, row) != set {
							t.Fatalf("p=%d rank=%d %s: row %d bitmap holds %d bits, %d of its %d entries", p, rank, when, r, set, graph.CountList(bm, row), len(row))
						}
					}
					if words > sb.Entries() {
						t.Fatalf("p=%d rank=%d %s: %d bitmap words over %d resident entries", p, rank, when, words, sb.Entries())
					}
				}
				mine := graph.ScatterEdges(pt, edges)[rank]
				const batch = 97
				split := len(mine) / 4
				for lo := 0; lo < split; lo += batch {
					sb.Fold(mine[lo:min(lo+batch, split)], threads)
					check("before Seal", false)
				}
				sb.Seal(threads)
				check("after Seal", true)
				for lo := split; lo < len(mine); lo += batch {
					sb.Stage(mine[lo:min(lo+batch, len(mine))], threads)
					check("staged", true) // the bitmaps still hold the pre-batch rows
					sb.Commit(threads)
					check("after Commit", true)
				}
			}
		}
	}
}

// TestStreamBuilderStageThroughBitmaps: a sealed builder subtracts a
// batch's repeats of resident entries through its row bitmaps where a row
// has one, an unsealed builder over the same edges gallops through every
// row; both must stage the same Δ, and that Δ must be the batch's distinct
// candidates minus the resident row, on batches that repeat entries of
// bitmap rows and of rows without one — shuffled, so candidate segments
// both short and long arrive unsorted and with in-batch duplicates.
func TestStreamBuilderStageThroughBitmaps(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 5))
	edges := g.Edges()
	rng := rand.New(rand.NewSource(6))
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	pt := part.Uniform(uint64(g.NumVertices()), 2)
	for rank := 0; rank < 2; rank++ {
		for _, threads := range []int{1, 3} {
			mine := graph.ScatterEdges(pt, edges)[rank]
			split := len(mine) / 2
			sealed, plain := graph.NewStreamBuilder(pt, rank), graph.NewStreamBuilder(pt, rank)
			sealed.Fold(mine[:split], threads)
			plain.Fold(mine[:split], threads)
			sealed.Seal(threads)
			viaBitmap, viaGallop := 0, 0
			const batch = 97
			for lo := split; lo < len(mine); lo += batch {
				hi := min(lo+batch, len(mine))
				// New edges, resident repeats (the other orientation half the
				// time) and in-batch duplicates, in random order.
				b := append([]graph.Edge(nil), mine[lo:hi]...)
				for k := 0; k < 2*(hi-lo); k++ {
					e := mine[rng.Intn(lo)]
					if k%2 == 1 {
						e.U, e.V = e.V, e.U
					}
					b = append(b, e)
				}
				b = append(b, mine[lo:lo+(hi-lo)/4]...)
				rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })

				want := map[int32][]graph.Vertex{}
				for _, e := range b {
					for _, c := range [][2]graph.Vertex{{e.U, e.V}, {e.V, e.U}} {
						if c[0] < sealed.First() || c[0] >= sealed.Last() || c[0] == c[1] {
							continue
						}
						r := int32(c[0] - sealed.First())
						if _, resident := slices.BinarySearch(sealed.Row(r), c[1]); !resident {
							want[r] = append(want[r], c[1])
						} else if sealed.RowBitmap(r) != nil {
							viaBitmap++
						} else {
							viaGallop++
						}
					}
				}
				sealed.Stage(b, threads)
				plain.Stage(b, threads)
				if !slices.Equal(sealed.Staged(), plain.Staged()) {
					t.Fatalf("rank %d: sealed staged rows %v, unsealed %v", rank, sealed.Staged(), plain.Staged())
				}
				for _, r := range sealed.Staged() {
					w := want[r]
					slices.Sort(w)
					w = slices.Compact(w)
					if got, gallop := sealed.StagedRowOf(r), plain.StagedRowOf(r); !slices.Equal(got, gallop) || !slices.Equal(got, w) {
						t.Fatalf("rank %d threads %d: row %d (bitmap=%v) stages Δ %v sealed, %v unsealed, want %v",
							rank, threads, r, sealed.RowBitmap(r) != nil, got, gallop, w)
					}
				}
				sealed.Commit(threads)
				plain.Commit(threads)
			}
			if viaBitmap == 0 || viaGallop == 0 {
				t.Fatalf("rank %d: %d resident repeats met a row bitmap, %d a row without one; the test must reach both", rank, viaBitmap, viaGallop)
			}
		}
	}
}

// BenchmarkStreamInsertSteadyState pins the per-batch insert path: staging
// and committing a batch whose edges are already resident must not allocate
// once the retained scratch has warmed up (CI allocation gate). /unsealed
// subtracts by galloping through the resident rows; /sealed runs on a
// builder with row bitmaps, and its repeats must reach them.
func BenchmarkStreamInsertSteadyState(b *testing.B) {
	g := gen.GNM(1<<10, 1<<13, 1)
	pt := part.Uniform(uint64(g.NumVertices()), 2)
	mine := graph.ScatterEdges(pt, g.Edges())[0]
	batch := mine[:min(256, len(mine))]
	for _, seal := range []bool{false, true} {
		name := "unsealed"
		if seal {
			name = "sealed"
		}
		b.Run(name, func(b *testing.B) {
			sb := graph.NewStreamBuilder(pt, 0)
			sb.Fold(mine, 1)
			if seal {
				sb.Seal(1)
				viaBitmap := 0
				for _, e := range batch {
					for _, v := range []graph.Vertex{e.U, e.V} {
						if v >= sb.First() && v < sb.Last() && sb.RowBitmap(int32(v-sb.First())) != nil {
							viaBitmap++
						}
					}
				}
				if viaBitmap == 0 {
					b.Fatal("no repeat of the batch meets a row bitmap; /sealed would not reach the bitmap subtraction")
				}
			}
			// Warm the retained scratch.
			sb.Stage(batch, 1)
			sb.Commit(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sb.Stage(batch, 1)
				sb.Commit(1)
			}
		})
	}
}
