package part

import "fmt"

// 2D block partitioning à la Tom & Karypis ("A 2-D Parallel Triangle
// Counting Algorithm", 2019), generalized to rectangular grids: the
// upper-triangular oriented adjacency matrix U (U[u][v] = 1 iff {u,v} ∈ E
// and u < v) is cut into an r×c grid of blocks over p = r·c PEs, and PE
// a·c+b owns block (a,b) — the edges whose smaller endpoint falls in row
// band a and larger endpoint in column band b.
//
// Bands are CYCLIC per dimension, not contiguous: rowBand(v) = v mod r,
// colBand(v) = v mod c. With contiguous bands the upper-triangular
// structure would leave every block below the grid diagonal empty (u < v
// forces band(u) ≤ band(v)), idling nearly half the PEs; dealing vertices
// round-robin scatters each band across the whole ID range, so all r·c
// blocks carry ≈|E|/p edges — the same trick dense LU solvers use against
// triangular imbalance. Within a band, a vertex is addressed by its
// relative index (v div r resp. v div c), which is monotone in v, so
// ID-sorted adjacency stays sorted after translation.
//
// The counting schedule runs over a third, finer banding: the MIDDLE
// vertex of a wedge i→v→j appears as a column of the A-side block (band
// v mod c) and as a row of the B-side block (band v mod r), so rounds
// iterate k = 0..L−1 over v mod L with L = lcm(r, c) — the only modulus
// that pins both residues at once. Round k's A-operand is then the stripe
// {entries v ≡ k (mod L)} of block (a, k mod c), a single row-broadcast
// root per row group, and the B-operand the matching stripe of the
// transposed block (k mod r, b), a single column-broadcast root — exactly
// the square schedule when r = c = q (L = q, every stripe is the whole
// block). Stripe entries translate to the round-relative index
// t = v div L by the affine maps of StripeRow/StripeCol below.
type Grid2D struct {
	n    uint64
	r, c int // grid rows × columns
	l    int // lcm(r, c): middle-vertex modulus = number of counting rounds
}

// SquareSide returns q with q² = p, or ok=false when p is not a perfect
// square.
func SquareSide(p int) (int, bool) {
	if p < 1 {
		return 0, false
	}
	q := 0
	for q*q < p {
		q++
	}
	return q, q*q == p
}

// FactorGrid factors a PE count into the closest rectangular grid r×c with
// r ≤ c (r the largest divisor of p not exceeding √p). Squares factor to
// √p×√p; primes degrade to the 1×p row grid.
func FactorGrid(p int) (r, c int) {
	if p < 1 {
		return 0, 0
	}
	r = 1
	for d := 2; d*d <= p; d++ {
		if p%d == 0 {
			r = d
		}
	}
	if q, ok := SquareSide(p); ok {
		r = q
	}
	return r, p / r
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// NewGrid2D builds the block partitioning of vertices 0..n-1 over p PEs on
// the FactorGrid r×c grid. Any p ≥ 1 is accepted; square p yields the
// classic √p×√p grid.
func NewGrid2D(n uint64, p int) (*Grid2D, error) {
	if p < 1 {
		return nil, fmt.Errorf("part: 2D grid needs p >= 1, got p=%d", p)
	}
	r, c := FactorGrid(p)
	return NewGrid2DRect(n, r, c)
}

// NewGrid2DRect builds an explicit r×c block partitioning of vertices
// 0..n-1 over p = r·c PEs.
func NewGrid2DRect(n uint64, r, c int) (*Grid2D, error) {
	if r < 1 || c < 1 {
		return nil, fmt.Errorf("part: 2D grid needs positive dimensions, got %d×%d", r, c)
	}
	return &Grid2D{n: n, r: r, c: c, l: r / gcd(r, c) * c}, nil
}

// N returns the number of vertices.
func (g *Grid2D) N() uint64 { return g.n }

// P returns the number of PEs (r·c).
func (g *Grid2D) P() int { return g.r * g.c }

// R returns the number of grid rows.
func (g *Grid2D) R() int { return g.r }

// C returns the number of grid columns.
func (g *Grid2D) C() int { return g.c }

// Rounds returns the number of counting rounds L = lcm(r, c): the middle
// vertex bands the broadcast schedule iterates over. √p for square grids.
func (g *Grid2D) Rounds() int { return g.l }

// bandSize counts the vertices v < n with v ≡ b (mod m).
func (g *Grid2D) bandSize(m, b int) int {
	if uint64(b) >= g.n {
		return 0
	}
	return int((g.n - uint64(b) + uint64(m) - 1) / uint64(m))
}

// BandRow returns the row band (residue mod r) of vertex v.
func (g *Grid2D) BandRow(v uint64) int {
	g.check(v)
	return int(v % uint64(g.r))
}

// BandCol returns the column band (residue mod c) of vertex v.
func (g *Grid2D) BandCol(v uint64) int {
	g.check(v)
	return int(v % uint64(g.c))
}

// RelRow returns v's relative index within its row band.
func (g *Grid2D) RelRow(v uint64) uint64 {
	g.check(v)
	return v / uint64(g.r)
}

// RelCol returns v's relative index within its column band.
func (g *Grid2D) RelCol(v uint64) uint64 {
	g.check(v)
	return v / uint64(g.c)
}

// GIDRow reconstructs the global vertex ID from a row band and a relative
// index.
func (g *Grid2D) GIDRow(band int, rel uint64) uint64 {
	return rel*uint64(g.r) + uint64(band)
}

// GIDCol reconstructs the global vertex ID from a column band and a
// relative index.
func (g *Grid2D) GIDCol(band int, rel uint64) uint64 {
	return rel*uint64(g.c) + uint64(band)
}

// GIDRound reconstructs the global vertex ID from a round (middle-vertex
// band mod L) and the round-relative index t = v div L.
func (g *Grid2D) GIDRound(k int, t uint64) uint64 {
	return t*uint64(g.l) + uint64(k)
}

// BandSizeRow returns the number of vertices in row band a.
func (g *Grid2D) BandSizeRow(a int) int { return g.bandSize(g.r, a) }

// BandSizeCol returns the number of vertices in column band b.
func (g *Grid2D) BandSizeCol(b int) int { return g.bandSize(g.c, b) }

// BandSizeRound returns the number of middle vertices of round k: the
// vertices v with v ≡ k (mod L) — the entry domain of round k's stripe
// operands in t-space.
func (g *Grid2D) BandSizeRound(k int) int { return g.bandSize(g.l, k) }

// Rank returns the PE owning block (a, b).
func (g *Grid2D) Rank(a, b int) int { return a*g.c + b }

// RowCol returns the block coordinates of a PE.
func (g *Grid2D) RowCol(rank int) (a, b int) { return rank / g.c, rank % g.c }

// Owner returns the PE owning the undirected edge {u, v}: the block indexed
// by the row band of the smaller and the column band of the larger
// endpoint. u must differ from v (self-loops belong to no block).
func (g *Grid2D) Owner(u, v uint64) int {
	if u == v {
		panic(fmt.Sprintf("part: self-loop %d has no block owner", u))
	}
	if u > v {
		u, v = v, u
	}
	return g.Rank(g.BandRow(u), g.BandCol(v))
}

// RowRanks returns the ranks of grid row a in column order — the row
// sub-communicator's member list (c members).
func (g *Grid2D) RowRanks(a int) []int {
	out := make([]int, g.c)
	for b := range out {
		out[b] = g.Rank(a, b)
	}
	return out
}

// ColRanks returns the ranks of grid column b in row order — the column
// sub-communicator's member list (r members).
func (g *Grid2D) ColRanks(b int) []int {
	out := make([]int, g.r)
	for a := range out {
		out[a] = g.Rank(a, b)
	}
	return out
}

// RootRow returns the member index (= grid column) of round k's A-side
// broadcast root within every row group: the owner of block (a, k mod c).
func (g *Grid2D) RootRow(k int) int { return k % g.c }

// RootCol returns the member index (= grid row) of round k's B-side
// broadcast root within every column group: the owner of block (k mod r, b).
func (g *Grid2D) RootCol(k int) int { return k % g.r }

// StripeRow describes round k's A-side stripe of block (a, k mod c): the
// block entries rel with rel ≡ res (mod stride) are the middle vertices
// v ≡ k (mod L), and map to round space as t = (rel − res) / stride. For
// square grids stride is 1 and the stripe is the whole block. Derivation:
// v = (k mod c) + c·rel ≡ k (mod L) ⟺ rel ≡ ⌊k/c⌋ (mod L/c).
func (g *Grid2D) StripeRow(k int) (res, stride int) { return k / g.c, g.l / g.c }

// StripeCol describes round k's B-side stripe of the TRANSPOSED block
// (k mod r, b), whose entries are row-band relative indices:
// rel ≡ ⌊k/r⌋ (mod L/r) selects v ≡ k (mod L), t = (rel − res) / stride.
func (g *Grid2D) StripeCol(k int) (res, stride int) { return k / g.r, g.l / g.r }

func (g *Grid2D) check(v uint64) {
	if v >= g.n {
		panic(fmt.Sprintf("part: vertex %d out of range n=%d", v, g.n))
	}
}
