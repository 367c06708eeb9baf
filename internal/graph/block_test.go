package graph

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"repro/internal/part"
)

// raceEnabled reports a -race build (set in race_test.go).
var raceEnabled bool

func block2DEdges(t *testing.T, n uint64, seed uint64) []Edge {
	t.Helper()
	// Deterministic scramble: a mix of loops, duplicates, and both
	// orientations, covering every band pair for small n.
	var edges []Edge
	x := seed
	for i := 0; i < int(n)*8; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		u := (x >> 16) % n
		v := (x >> 40) % n
		edges = append(edges, Edge{U: u, V: v})
		if i%7 == 0 {
			edges = append(edges, Edge{U: v, V: u}) // duplicate, flipped
		}
		if i%11 == 0 {
			edges = append(edges, Edge{U: u, V: u}) // self-loop
		}
	}
	return edges
}

// TestScatterEdges2DPartition: every non-loop edge lands in exactly one
// slice — its owner's — canon-oriented; loops are dropped; the layout is
// byte-identical across thread counts.
func TestScatterEdges2DPartition(t *testing.T) {
	for _, p := range []int{9, 6} {
		g2, err := part.NewGrid2D(37, p)
		if err != nil {
			t.Fatal(err)
		}
		edges := block2DEdges(t, 37, 12345)
		ref := ScatterEdges2D(g2, edges, 1)
		nonLoops := 0
		for _, e := range edges {
			if e.U != e.V {
				nonLoops++
			}
		}
		placed := 0
		for rank, slice := range ref {
			for _, e := range slice {
				if e.U >= e.V {
					t.Fatalf("rank %d holds non-canon edge (%d,%d)", rank, e.U, e.V)
				}
				if got := g2.Owner(e.U, e.V); got != rank {
					t.Fatalf("edge (%d,%d) in slice %d, owner is %d", e.U, e.V, rank, got)
				}
			}
			placed += len(slice)
		}
		if placed != nonLoops {
			t.Fatalf("placed %d edges, want %d non-loops", placed, nonLoops)
		}
		for _, threads := range []int{2, 4, 7} {
			got := ScatterEdges2D(g2, edges, threads)
			for rank := range ref {
				if !slices.Equal(got[rank], ref[rank]) {
					t.Fatalf("threads=%d: slice %d differs from single-thread layout", threads, rank)
				}
			}
		}
	}
}

// blockOracle builds the expected per-row entry sets with a map.
func blockOracle(g2 *part.Grid2D, rank int, edges []Edge) map[int][]Vertex {
	a, c := g2.RowCol(rank)
	rows := make(map[int]map[Vertex]bool)
	for _, e := range edges {
		if g2.BandRow(e.U) != a || g2.BandCol(e.V) != c {
			continue
		}
		row := int(g2.RelRow(e.U))
		if rows[row] == nil {
			rows[row] = make(map[Vertex]bool)
		}
		rows[row][g2.RelCol(e.V)] = true
	}
	out := make(map[int][]Vertex, len(rows))
	for row, set := range rows {
		for v := range set {
			out[row] = append(out[row], v)
		}
		slices.Sort(out[row])
	}
	return out
}

// sameValues reports whether a 4-byte row list holds exactly the values of
// a 64-bit oracle list, in order.
func sameValues(got []uint32, want []Vertex) bool {
	return slices.EqualFunc(got, want, func(g uint32, w Vertex) bool { return Vertex(g) == w })
}

func checkBlockAgainstOracle(t *testing.T, b *Block, oracle map[int][]Vertex, label string) {
	t.Helper()
	nnz := 0
	for row := 0; row < b.NRows(); row++ {
		want := oracle[row]
		if got := b.Row(row); !sameValues(got, want) {
			t.Fatalf("%s row %d: got %v, want %v", label, row, got, want)
		}
		nnz += len(want)
	}
	if b.NNZ() != nnz {
		t.Fatalf("%s: NNZ=%d, oracle %d", label, b.NNZ(), nnz)
	}
}

// TestBuildBlock2D pins the CSR against a map oracle, across thread counts,
// with duplicates in the input — on square and rectangular grids.
func TestBuildBlock2D(t *testing.T) {
	for _, p := range []int{4, 6, 8} {
		g2, err := part.NewGrid2D(29, p)
		if err != nil {
			t.Fatal(err)
		}
		per := ScatterEdges2D(g2, block2DEdges(t, 29, 777), 2)
		for rank := 0; rank < g2.P(); rank++ {
			// Inject duplicates: BuildBlock2D must merge them.
			in := append(slices.Clone(per[rank]), per[rank]...)
			oracle := blockOracle(g2, rank, in)
			for _, threads := range []int{1, 3} {
				b := BuildBlock2D(g2, rank, in, threads)
				a, c := g2.RowCol(rank)
				if b.BandRow() != a || b.BandCol() != c ||
					b.NRows() != g2.BandSizeRow(a) || b.Domain() != g2.BandSizeCol(c) {
					t.Fatalf("p=%d rank %d: block shape (%d,%d,%d,%d)", p, rank, b.BandRow(), b.BandCol(), b.NRows(), b.Domain())
				}
				checkBlockAgainstOracle(t, b, oracle, "block")
			}
		}
	}
}

// TestBuildBlockCSRCutsDegreeOrientedGraph pins BuildBlockCSR against a map
// oracle that knows nothing of blocks: over all ranks of a grid the blocks
// hold every undirected edge exactly once, directed u ≺ v, rows ascending
// and in range, and the rows of vertex u across its grid row's c blocks add
// up to u's out-degree in Orient(g) — on square, rectangular and degenerate
// (1×p) grids, for several thread counts (4099 rows span several worker
// chunks), and on a 4-regular circulant where every degree ties and ≺ falls
// through to the ID tie-break.
func TestBuildBlockCSRCutsDegreeOrientedGraph(t *testing.T) {
	graphs := make(map[string]*Graph)
	for _, n := range []uint64{1, 23, 4099} {
		graphs[fmt.Sprintf("scramble%d", n)] = FromEdges(int(n), block2DEdges(t, n, 31+n))
	}
	const nReg = 97
	var ring []Edge
	for v := uint64(0); v < nReg; v++ {
		ring = append(ring, Edge{U: v, V: (v + 1) % nReg}, Edge{U: v, V: (v + 2) % nReg})
	}
	graphs["regular"] = FromEdges(nReg, ring)

	for name, g := range graphs {
		n := uint64(g.NumVertices())
		ori := Orient(g)
		for _, p := range []int{1, 2, 4, 6, 9, 12} {
			g2, err := part.NewGrid2D(n, p)
			if err != nil {
				t.Fatal(err)
			}
			for _, threads := range []int{1, 3} {
				seen := make(map[Edge]int)
				outDeg := make([]int, n)
				for rank := 0; rank < p; rank++ {
					a, bc := g2.RowCol(rank)
					b := BuildBlockCSR(g2, rank, g, threads)
					if b.BandRow() != a || b.BandCol() != bc ||
						b.NRows() != g2.BandSizeRow(a) || b.Domain() != g2.BandSizeCol(bc) {
						t.Fatalf("%s p=%d rank %d: block shape (%d,%d,%d,%d)", name, p, rank, b.BandRow(), b.BandCol(), b.NRows(), b.Domain())
					}
					for rel := 0; rel < b.NRows(); rel++ {
						u := g2.GIDRow(a, Vertex(rel))
						row := b.Row(rel)
						outDeg[u] += len(row)
						for i, e := range row {
							if int(e) >= b.Domain() || (i > 0 && e <= row[i-1]) {
								t.Fatalf("%s p=%d rank %d threads=%d: row %d = %v not ascending below %d", name, p, rank, threads, rel, row, b.Domain())
							}
							v := g2.GIDCol(bc, Vertex(e))
							if !g.HasEdge(u, v) || !Less(g.Degree(u), u, g.Degree(v), v) {
								t.Fatalf("%s p=%d rank %d threads=%d: (%d,%d) is not an edge directed by ≺", name, p, rank, threads, u, v)
							}
							seen[Edge{U: u, V: v}.Canon()]++
						}
					}
				}
				if len(seen) != g.NumEdges() {
					t.Fatalf("%s p=%d threads=%d: blocks hold %d distinct edges, graph has %d", name, p, threads, len(seen), g.NumEdges())
				}
				for e, k := range seen {
					if k != 1 {
						t.Fatalf("%s p=%d threads=%d: edge %v held %d times", name, p, threads, e, k)
					}
				}
				for u := range outDeg {
					if want := ori.OutDegree(Vertex(u)); outDeg[u] != want {
						t.Fatalf("%s p=%d threads=%d: rows of vertex %d hold %d entries, d⁺ = %d", name, p, threads, u, outDeg[u], want)
					}
				}
			}
		}
	}
}

// TestBlockTranspose: the transpose holds exactly the flipped entries, rows
// ascending, bands and dimensions swapped.
func TestBlockTranspose(t *testing.T) {
	for _, p := range []int{9, 6} {
		g2, err := part.NewGrid2D(23, p)
		if err != nil {
			t.Fatal(err)
		}
		per := ScatterEdges2D(g2, block2DEdges(t, 23, 999), 1)
		for rank := 0; rank < g2.P(); rank++ {
			b := BuildBlock2D(g2, rank, per[rank], 2)
			for _, threads := range []int{1, 4} {
				bt := b.Transpose(threads)
				if bt.BandRow() != b.BandCol() || bt.BandCol() != b.BandRow() ||
					bt.NRows() != b.Domain() || bt.Domain() != b.NRows() {
					t.Fatalf("p=%d rank %d: transpose shape (%d,%d,%d,%d)", p, rank, bt.BandRow(), bt.BandCol(), bt.NRows(), bt.Domain())
				}
				oracle := make(map[int][]Vertex)
				for row := 0; row < b.NRows(); row++ {
					for _, v := range b.Row(row) {
						oracle[int(v)] = append(oracle[int(v)], Vertex(row))
					}
				}
				checkBlockAgainstOracle(t, bt, oracle, "transpose")
			}
		}
	}
}

// TestBlockStripe: StripeInto selects exactly the entries in the round's
// residue class, order-preserved and translated to round space, and the
// stripes across all rounds tile the block.
func TestBlockStripe(t *testing.T) {
	g2, err := part.NewGrid2DRect(41, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	per := ScatterEdges2D(g2, block2DEdges(t, 41, 2024), 1)
	for rank := 0; rank < g2.P(); rank++ {
		b := BuildBlock2D(g2, rank, per[rank], 1)
		_, bc := g2.RowCol(rank)
		var stripe Block // reused across rounds: extraction must fully overwrite
		covered := 0
		for k := 0; k < g2.Rounds(); k++ {
			if g2.RootRow(k) != bc {
				continue // block (a, k mod c) is some other PE's this round
			}
			res, stride := g2.StripeRow(k)
			domain := g2.BandSizeRound(k)
			b.StripeInto(&stripe, k, res, stride, domain)
			if stripe.BandRow() != b.BandRow() || stripe.BandCol() != k ||
				stripe.NRows() != b.NRows() || stripe.Domain() != domain {
				t.Fatalf("rank %d round %d: stripe shape (%d,%d,%d,%d)", rank, k, stripe.BandRow(), stripe.BandCol(), stripe.NRows(), stripe.Domain())
			}
			for row := 0; row < b.NRows(); row++ {
				var want []Vertex
				for _, v := range b.Row(row) {
					if int(v)%stride == res {
						want = append(want, (Vertex(v)-Vertex(res))/Vertex(stride))
					}
				}
				if !sameValues(stripe.Row(row), want) {
					t.Fatalf("rank %d round %d row %d: stripe %v, want %v", rank, k, row, stripe.Row(row), want)
				}
				for _, tt := range stripe.Row(row) {
					// Translation is consistent: round + t reconstructs a vertex of
					// the block's entry band in residue class k mod L.
					v := g2.GIDRound(k, uint64(tt))
					if g2.BandCol(v) != bc {
						t.Fatalf("rank %d round %d: t=%d maps to %d outside column band %d", rank, k, tt, v, bc)
					}
				}
				covered += len(want)
			}
		}
		if covered != b.NNZ() {
			t.Fatalf("rank %d: stripes cover %d entries, block has %d", rank, covered, b.NNZ())
		}
	}
}

// TestBlockWireRoundTrip: AppendWire → DecodeBlockInto reproduces the block,
// including through reuse of a previously-populated scratch block.
func TestBlockWireRoundTrip(t *testing.T) {
	for _, p := range []int{9, 6} {
		g2, err := part.NewGrid2D(41, p)
		if err != nil {
			t.Fatal(err)
		}
		per := ScatterEdges2D(g2, block2DEdges(t, 41, 4242), 2)
		var scratch Block // reused across ranks: decode must fully overwrite
		for rank := 0; rank < g2.P(); rank++ {
			b := BuildBlock2D(g2, rank, per[rank], 1)
			wire := b.AppendWire(nil)
			if err := DecodeBlockInto(wire, b.BandRow(), b.BandCol(), b.NRows(), b.Domain(), &scratch); err != nil {
				t.Fatalf("rank %d: decode: %v", rank, err)
			}
			if scratch.BandRow() != b.BandRow() || scratch.BandCol() != b.BandCol() ||
				scratch.NRows() != b.NRows() || scratch.NNZ() != b.NNZ() || scratch.Domain() != b.Domain() {
				t.Fatalf("rank %d: decoded shape differs", rank)
			}
			for row := 0; row < b.NRows(); row++ {
				if !slices.Equal(scratch.Row(row), b.Row(row)) {
					t.Fatalf("rank %d row %d: decoded %v, want %v", rank, row, scratch.Row(row), b.Row(row))
				}
			}
		}
	}
}

// TestDecodeBlockIntoRejectsMalformed: truncation, band mismatches,
// descending rows, out-of-range and out-of-order entries, trailing garbage.
// Expected dims mirror block (0,1) of a 2×2 grid over n=20: 10 rows,
// domain 10.
func TestDecodeBlockIntoRejectsMalformed(t *testing.T) {
	for name, wire := range map[string][]uint64{
		"truncated header":                 {0, 1},
		"wrong row band":                   {5, 1, 0},
		"wrong col band":                   {0, 2, 0},
		"truncated record":                 {0, 1, 1, 0},
		"zero-length row":                  {0, 1, 1, 0, 0},
		"row out of range":                 {0, 1, 1, 99, 1, 0},
		"row gap zero (dup)":               {0, 1, 2, 3, 1, 0, 0, 1, 0},
		"row gap past range":               {0, 1, 2, 3, 1, 0, 96, 1, 0},
		"entry past domain":                {0, 1, 1, 0, 1, 99},
		"entries not ascending (zero gap)": {0, 1, 1, 0, 2, 3, 0},
		"trailing words":                   {0, 1, 1, 0, 1, 0, 7},
		"used past the wire":               {0, 1, 2, 0, 1, 0},
		"used 2^63":                        {0, 1, 1 << 63, 0, 1, 0},
		"used 2^64-1":                      {0, 1, ^uint64(0), 0, 1, 0},
		"entry 2^32+3 (narrows to 3)":      {0, 1, 1, 0, 1, 1<<32 + 3},
		"gap to 2^32+1 (narrows to 1)":     {0, 1, 1, 0, 2, 0, 1<<32 + 1},
	} {
		var b Block
		if err := DecodeBlockInto(wire, 0, 1, 10, 10, &b); err == nil {
			t.Errorf("%s: decode accepted %v", name, wire)
		}
	}
}

// TestBlockWireColdBuffersSizedOnce: serializing into and decoding into
// empty buffers allocates once per output buffer — AppendWire's words,
// DecodeBlockInto's off and col — instead of growing by doubling.
func TestBlockWireColdBuffersSizedOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("-race builds allocate twice per slices.Grow")
	}
	g2, err := part.NewGrid2D(400, 4)
	if err != nil {
		t.Fatal(err)
	}
	per := ScatterEdges2D(g2, block2DEdges(t, 400, 99), 1)
	b := BuildBlock2D(g2, 1, per[1], 1)
	if b.NNZ() < 100 {
		t.Fatalf("test block too small: %d entries", b.NNZ())
	}
	wire := b.AppendWire(nil)
	if got := testing.AllocsPerRun(20, func() { wire = b.AppendWire(nil) }); got != 1 {
		t.Errorf("AppendWire(nil) made %v allocations, want 1", got)
	}
	if exact := cap(slices.Grow([]uint64(nil), len(wire))); cap(wire) != exact {
		t.Errorf("AppendWire(nil) left cap %d for %d words, want %d", cap(wire), len(wire), exact)
	}
	var rt Block
	var decErr error
	got := testing.AllocsPerRun(20, func() {
		rt = Block{}
		decErr = DecodeBlockInto(wire, b.BandRow(), b.BandCol(), b.NRows(), b.Domain(), &rt)
	})
	if decErr != nil {
		t.Fatal(decErr)
	}
	if got != 2 {
		t.Errorf("DecodeBlockInto into a zero Block made %v allocations, want 2", got)
	}
	if rt.NNZ() != b.NNZ() {
		t.Errorf("decoded %d entries, want %d", rt.NNZ(), b.NNZ())
	}
}

// FuzzDecodeBlockWire feeds arbitrary word strings to DecodeBlockInto
// (expecting bands (0,1), nRows rows, entries < domain). Each call returns
// an error or a block whose AppendWire reproduces the input word for word —
// the wire form is canonical — and col never grows past what len(wire) words
// would take, whatever the header claims.
func FuzzDecodeBlockWire(f *testing.F) {
	seed := func(nRows, domain uint8, words ...uint64) {
		var data []byte
		for _, w := range words {
			data = binary.LittleEndian.AppendUint64(data, w)
		}
		f.Add(data, nRows, domain)
	}
	seed(8, 16, 0, 1, 0)                      // used 0: an empty block
	seed(8, 16, 0, 1, 2, 2, 2, 3, 1, 3, 1, 5) // rows 2 and 5: {3, 4} and {5}
	seed(8, 16, 0, 1, 8, 0, 1, 0, 1, 1)       // used = len(wire) = 8
	seed(8, 16, 0, 1, 1<<62, 0, 1, 0)
	seed(8, 16, 0, 1, 1<<63, 0, 1, 0)
	seed(8, 16, 0, 1, ^uint64(0), 0, 1, 0)
	seed(8, 16, 0, 1, 1, 0, 1, 1<<32+3) // narrowed to 4 bytes, 3 would be in range
	f.Fuzz(func(t *testing.T, data []byte, nRows, domain uint8) {
		wire := make([]uint64, len(data)/8)
		for i := range wire {
			wire[i] = binary.LittleEndian.Uint64(data[8*i:])
		}
		var b Block
		err := DecodeBlockInto(wire, 0, 1, int(nRows), int(domain), &b)
		if limit := cap(slices.Grow([]uint32(nil), len(wire))); cap(b.col) > limit {
			t.Fatalf("col grew to %d for a %d-word wire", cap(b.col), len(wire))
		}
		if err != nil {
			return
		}
		if b.NRows() != int(nRows) {
			t.Fatalf("decoded %d rows, want %d", b.NRows(), nRows)
		}
		for row := 0; row < b.NRows(); row++ {
			seg := b.Row(row)
			for i, v := range seg {
				if v >= uint32(domain) || (i > 0 && v <= seg[i-1]) {
					t.Fatalf("row %d entry %d (%d) out of order or range", row, i, v)
				}
			}
		}
		if got := b.AppendWire(nil); !slices.Equal(got, wire) {
			t.Fatalf("re-encoded %v, input %v", got, wire)
		}
	})
}

// FuzzBlockMapping is the satellite fuzz target: for arbitrary edge streams
// and any r×c grid, every non-loop edge belongs to exactly one block, that
// block round-trips to the owning rank, and the built block survives a wire
// round trip bit-exactly.
func FuzzBlockMapping(f *testing.F) {
	f.Add([]byte{}, uint16(7), uint8(2), uint8(2))
	f.Add([]byte{0, 0, 1, 0, 2, 0, 3, 0}, uint16(9), uint8(3), uint8(3))
	f.Add([]byte{9, 0, 3, 0, 3, 0, 9, 0, 5, 0, 5, 0}, uint16(50), uint8(2), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, nRaw uint16, rRaw, cRaw uint8) {
		n := uint64(nRaw%300) + 1
		r := int(rRaw%5) + 1
		c := int(cRaw%5) + 1
		g2, err := part.NewGrid2DRect(n, r, c)
		if err != nil {
			t.Fatal(err)
		}
		var edges []Edge
		for i := 0; i+3 < len(data); i += 4 {
			u := uint64(binary.LittleEndian.Uint16(data[i:])) % n
			v := uint64(binary.LittleEndian.Uint16(data[i+2:])) % n
			edges = append(edges, Edge{U: u, V: v})
		}
		per := ScatterEdges2D(g2, edges, 2)
		seen := make(map[Edge]int)
		for rank, slice := range per {
			for _, e := range slice {
				if prev, dup := seen[e]; dup && prev != rank {
					t.Fatalf("edge (%d,%d) in blocks %d and %d", e.U, e.V, prev, rank)
				}
				seen[e] = rank
				if g2.Owner(e.U, e.V) != rank {
					t.Fatalf("edge (%d,%d) misrouted to %d", e.U, e.V, rank)
				}
				a, b := g2.RowCol(rank)
				if g2.BandRow(e.U) != a || g2.BandCol(e.V) != b {
					t.Fatalf("edge (%d,%d) bands disagree with block (%d,%d)", e.U, e.V, a, b)
				}
			}
		}
		for _, e := range edges {
			if e.U == e.V {
				continue
			}
			if _, ok := seen[e.Canon()]; !ok {
				t.Fatalf("edge (%d,%d) landed in no block", e.U, e.V)
			}
		}
		// Wire round trip of a populated block (pick the fullest).
		best := 0
		for rank := range per {
			if len(per[rank]) > len(per[best]) {
				best = rank
			}
		}
		b := BuildBlock2D(g2, best, per[best], 1)
		var rt Block
		if err := DecodeBlockInto(b.AppendWire(nil), b.BandRow(), b.BandCol(), b.NRows(), b.Domain(), &rt); err != nil {
			t.Fatalf("wire round trip: %v", err)
		}
		if rt.NNZ() != b.NNZ() || rt.NRows() != b.NRows() {
			t.Fatalf("wire round trip changed shape")
		}
		for row := 0; row < b.NRows(); row++ {
			if !slices.Equal(rt.Row(row), b.Row(row)) {
				t.Fatalf("wire round trip changed row %d", row)
			}
		}
	})
}
