package part

import "testing"

func TestSquareSide(t *testing.T) {
	for p, want := range map[int]int{1: 1, 4: 2, 9: 3, 16: 4, 25: 5, 64: 8} {
		q, ok := SquareSide(p)
		if !ok || q != want {
			t.Errorf("SquareSide(%d) = %d,%v, want %d,true", p, q, ok, want)
		}
	}
	for _, p := range []int{0, -4, 2, 3, 5, 8, 10, 15, 24, 63} {
		if _, ok := SquareSide(p); ok {
			t.Errorf("SquareSide(%d) should not be square", p)
		}
	}
}

func TestFactorGrid(t *testing.T) {
	for _, tc := range []struct{ p, r, c int }{
		{1, 1, 1}, {2, 1, 2}, {3, 1, 3}, {4, 2, 2}, {6, 2, 3}, {8, 2, 4},
		{9, 3, 3}, {12, 3, 4}, {16, 4, 4}, {18, 3, 6}, {24, 4, 6}, {30, 5, 6},
		{7, 1, 7}, {25, 5, 5},
	} {
		r, c := FactorGrid(tc.p)
		if r != tc.r || c != tc.c {
			t.Errorf("FactorGrid(%d) = %d×%d, want %d×%d", tc.p, r, c, tc.r, tc.c)
		}
		if r*c != tc.p || r > c {
			t.Errorf("FactorGrid(%d) = %d×%d not a factorization with r <= c", tc.p, r, c)
		}
	}
}

func TestNewGrid2DAcceptsAnyP(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 6, 8, 12} {
		g, err := NewGrid2D(100, p)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if g.P() != p {
			t.Fatalf("p=%d: grid is %d×%d", p, g.R(), g.C())
		}
	}
	if _, err := NewGrid2D(100, 0); err == nil {
		t.Fatal("want error for p=0")
	}
	if _, err := NewGrid2DRect(100, 2, 0); err == nil {
		t.Fatal("want error for 2×0")
	}
}

func TestGrid2DRounds(t *testing.T) {
	for _, tc := range []struct{ r, c, l int }{
		{1, 1, 1}, {2, 2, 2}, {3, 3, 3}, {1, 4, 4}, {2, 3, 6}, {2, 4, 4}, {3, 4, 12}, {4, 6, 12},
	} {
		g, err := NewGrid2DRect(50, tc.r, tc.c)
		if err != nil {
			t.Fatal(err)
		}
		if g.Rounds() != tc.l {
			t.Errorf("%d×%d: Rounds()=%d, want lcm=%d", tc.r, tc.c, g.Rounds(), tc.l)
		}
	}
}

// bandRoundTrip checks one banding dimension: band/rel/gid are a bijection,
// bands partition the vertex set with the advertised sizes, and rel is
// dense and monotone in v within a band (so ID-sorted adjacency stays
// sorted after translation).
func bandRoundTrip(t *testing.T, n uint64, m int, band func(uint64) int,
	rel func(uint64) uint64, gid func(int, uint64) uint64, size func(int) int) {
	t.Helper()
	sizes := make([]int, m)
	for v := uint64(0); v < n; v++ {
		b, r := band(v), rel(v)
		if got := gid(b, r); got != v {
			t.Fatalf("n=%d m=%d: gid(band,rel) of %d = %d", n, m, v, got)
		}
		if int(r) != sizes[b] {
			t.Fatalf("n=%d m=%d: band %d rel not dense/monotone at v=%d", n, m, b, v)
		}
		sizes[b]++
	}
	total := 0
	for b := 0; b < m; b++ {
		if size(b) != sizes[b] {
			t.Fatalf("n=%d m=%d: size(%d)=%d, counted %d", n, m, b, size(b), sizes[b])
		}
		total += size(b)
	}
	if total != int(n) {
		t.Fatalf("n=%d m=%d: band sizes sum to %d", n, m, total)
	}
}

func TestGrid2DBandRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		n    uint64
		r, c int
	}{{10, 3, 3}, {100, 4, 4}, {1, 2, 2}, {7, 2, 2}, {64, 8, 8}, {33, 1, 1},
		{50, 2, 3}, {50, 2, 4}, {17, 3, 4}, {29, 1, 5}, {64, 4, 6}} {
		g, err := NewGrid2DRect(tc.n, tc.r, tc.c)
		if err != nil {
			t.Fatal(err)
		}
		bandRoundTrip(t, tc.n, g.R(), g.BandRow, g.RelRow, g.GIDRow, g.BandSizeRow)
		bandRoundTrip(t, tc.n, g.C(), g.BandCol, g.RelCol, g.GIDCol, g.BandSizeCol)
		bandRoundTrip(t, tc.n, g.Rounds(),
			func(v uint64) int { return int(v % uint64(g.Rounds())) },
			func(v uint64) uint64 { return v / uint64(g.Rounds()) },
			g.GIDRound, g.BandSizeRound)
	}
}

// TestGrid2DOwner: the owner of every pair is a valid rank, symmetric in
// its arguments, and equals the block named by the endpoint bands — on
// square and rectangular grids.
func TestGrid2DOwner(t *testing.T) {
	for _, tc := range []struct{ r, c int }{{3, 3}, {2, 3}, {2, 4}, {1, 5}} {
		g, err := NewGrid2DRect(40, tc.r, tc.c)
		if err != nil {
			t.Fatal(err)
		}
		for u := uint64(0); u < 40; u++ {
			for v := uint64(0); v < 40; v++ {
				if u == v {
					continue
				}
				o := g.Owner(u, v)
				if o != g.Owner(v, u) {
					t.Fatalf("%d×%d: Owner(%d,%d) not symmetric", tc.r, tc.c, u, v)
				}
				lo, hi := min(u, v), max(u, v)
				if want := g.Rank(g.BandRow(lo), g.BandCol(hi)); o != want {
					t.Fatalf("%d×%d: Owner(%d,%d)=%d, want block rank %d", tc.r, tc.c, u, v, o, want)
				}
				a, b := g.RowCol(o)
				if g.Rank(a, b) != o || a >= g.R() || b >= g.C() {
					t.Fatalf("%d×%d: RowCol/Rank mismatch for %d", tc.r, tc.c, o)
				}
			}
		}
	}
}

func TestGrid2DRowColRanks(t *testing.T) {
	for _, tc := range []struct{ r, c int }{{4, 4}, {2, 3}, {3, 2}, {1, 6}} {
		g, err := NewGrid2DRect(50, tc.r, tc.c)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[int]int)
		for a := 0; a < g.R(); a++ {
			ranks := g.RowRanks(a)
			if len(ranks) != g.C() {
				t.Fatalf("%d×%d: RowRanks(%d) has %d members", tc.r, tc.c, a, len(ranks))
			}
			for i, rank := range ranks {
				rr, cc := g.RowCol(rank)
				if rr != a || cc != i {
					t.Fatalf("%d×%d: RowRanks(%d)[%d] = %d at (%d,%d)", tc.r, tc.c, a, i, rank, rr, cc)
				}
				seen[rank]++
			}
		}
		for b := 0; b < g.C(); b++ {
			ranks := g.ColRanks(b)
			if len(ranks) != g.R() {
				t.Fatalf("%d×%d: ColRanks(%d) has %d members", tc.r, tc.c, b, len(ranks))
			}
			for i, rank := range ranks {
				rr, cc := g.RowCol(rank)
				if cc != b || rr != i {
					t.Fatalf("%d×%d: ColRanks(%d)[%d] = %d at (%d,%d)", tc.r, tc.c, b, i, rank, rr, cc)
				}
				seen[rank]++
			}
		}
		// Every rank appears in exactly one row and one column group.
		for rank := 0; rank < g.P(); rank++ {
			if seen[rank] != 2 {
				t.Fatalf("%d×%d: rank %d appears %d times across groups", tc.r, tc.c, rank, seen[rank])
			}
		}
	}
}

// TestGrid2DStripes: round k's row- and column-side stripe parameters
// select exactly the middle vertices v ≡ k (mod L) from the operand bands,
// and the affine translation to round space round-trips through GIDRound.
func TestGrid2DStripes(t *testing.T) {
	for _, tc := range []struct{ r, c int }{{3, 3}, {2, 3}, {2, 4}, {3, 4}, {1, 5}, {4, 6}} {
		const n = 97
		g, err := NewGrid2DRect(n, tc.r, tc.c)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < g.Rounds(); k++ {
			if g.RootRow(k) != k%g.C() || g.RootCol(k) != k%g.R() {
				t.Fatalf("%d×%d round %d: roots (%d,%d)", tc.r, tc.c, k, g.RootRow(k), g.RootCol(k))
			}
			resA, strideA := g.StripeRow(k)
			resB, strideB := g.StripeCol(k)
			// Walk every vertex of the operand bands and check membership +
			// translation against the direct v mod L test.
			seenA, seenB := 0, 0
			for v := uint64(0); v < n; v++ {
				inRound := int(v%uint64(g.Rounds())) == k
				if g.BandCol(v) == k%g.C() {
					rel := int(g.RelCol(v))
					member := rel%strideA == resA%strideA && rel >= resA
					// rel ≡ resA (mod strideA) always implies rel ≥ resA? resA < strideA
					// is not guaranteed (resA = k/c < L/c = strideA, so it is).
					if member != inRound {
						t.Fatalf("%d×%d round %d: A-side v=%d membership %v, want %v", tc.r, tc.c, k, v, member, inRound)
					}
					if member {
						tt := uint64((rel - resA) / strideA)
						if g.GIDRound(k, tt) != v {
							t.Fatalf("%d×%d round %d: A-side v=%d maps to t=%d → %d", tc.r, tc.c, k, v, tt, g.GIDRound(k, tt))
						}
						seenA++
					}
				}
				if g.BandRow(v) == k%g.R() {
					rel := int(g.RelRow(v))
					member := rel%strideB == resB%strideB && rel >= resB
					if member != inRound {
						t.Fatalf("%d×%d round %d: B-side v=%d membership %v, want %v", tc.r, tc.c, k, v, member, inRound)
					}
					if member {
						tt := uint64((rel - resB) / strideB)
						if g.GIDRound(k, tt) != v {
							t.Fatalf("%d×%d round %d: B-side v=%d maps to t=%d → %d", tc.r, tc.c, k, v, tt, g.GIDRound(k, tt))
						}
						seenB++
					}
				}
			}
			if seenA != g.BandSizeRound(k) || seenB != g.BandSizeRound(k) {
				t.Fatalf("%d×%d round %d: stripe sizes %d/%d, want %d", tc.r, tc.c, k, seenA, seenB, g.BandSizeRound(k))
			}
		}
	}
}

func TestGrid2DPanicsOutOfRange(t *testing.T) {
	g, _ := NewGrid2D(10, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for out-of-range vertex")
		}
	}()
	g.BandRow(10)
}

// FuzzRectGrid: for arbitrary n, r, c — every unordered non-loop pair has
// exactly one owner, consistent with the band coordinates; every vertex
// lands in exactly one round stripe on each side with a round-tripping
// translation; band sizes tile n.
func FuzzRectGrid(f *testing.F) {
	f.Add(uint64(20), 2, 3)
	f.Add(uint64(7), 3, 3)
	f.Add(uint64(50), 1, 5)
	f.Add(uint64(33), 4, 6)
	f.Fuzz(func(t *testing.T, nRaw uint64, rRaw, cRaw int) {
		n := nRaw%200 + 1
		r := ((rRaw%6)+6)%6 + 1
		c := ((cRaw%6)+6)%6 + 1
		g, err := NewGrid2DRect(n, r, c)
		if err != nil {
			t.Fatal(err)
		}
		if g.Rounds()%r != 0 || g.Rounds()%c != 0 || g.Rounds() > r*c {
			t.Fatalf("Rounds()=%d not a common multiple of %d,%d", g.Rounds(), r, c)
		}
		for v := uint64(0); v < n; v++ {
			if g.GIDRow(g.BandRow(v), g.RelRow(v)) != v || g.GIDCol(g.BandCol(v), g.RelCol(v)) != v {
				t.Fatalf("band round-trip failed for v=%d", v)
			}
			k := int(v % uint64(g.Rounds()))
			resA, strideA := g.StripeRow(k)
			resB, strideB := g.StripeCol(k)
			if g.BandCol(v) != g.RootRow(k) || g.BandRow(v) != g.RootCol(k) {
				t.Fatalf("v=%d: operand bands (%d,%d) disagree with roots of round %d", v, g.BandCol(v), g.BandRow(v), k)
			}
			relA, relB := int(g.RelCol(v)), int(g.RelRow(v))
			if relA%strideA != resA || relB%strideB != resB {
				t.Fatalf("v=%d: not in round-%d stripes (relA=%d relB=%d)", v, k, relA, relB)
			}
			if g.GIDRound(k, uint64((relA-resA)/strideA)) != v || g.GIDRound(k, uint64((relB-resB)/strideB)) != v {
				t.Fatalf("v=%d: stripe translation does not round-trip", v)
			}
		}
		for u := uint64(0); u < n; u++ {
			for v := u + 1; v < n; v++ {
				o := g.Owner(u, v)
				if o < 0 || o >= g.P() || o != g.Owner(v, u) {
					t.Fatalf("Owner(%d,%d)=%d invalid", u, v, o)
				}
				a, b := g.RowCol(o)
				if a != g.BandRow(u) || b != g.BandCol(v) {
					t.Fatalf("Owner(%d,%d)=%d at (%d,%d), want (%d,%d)", u, v, o, a, b, g.BandRow(u), g.BandCol(v))
				}
			}
		}
	})
}
