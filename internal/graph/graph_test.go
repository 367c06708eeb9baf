package graph

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// Less reports whether u ≺ v given their degrees: the order the tests check
// orientations against.
func Less(du int, u Vertex, dv int, v Vertex) bool { return precedes(du, u, dv, v) == 1 }

func triangleEdges() []Edge {
	return []Edge{{0, 1}, {1, 2}, {0, 2}}
}

func TestFromEdgesBasics(t *testing.T) {
	g := FromEdges(3, triangleEdges())
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("got n=%d m=%d, want 3/3", g.NumVertices(), g.NumEdges())
	}
	for v := Vertex(0); v < 3; v++ {
		if g.Degree(v) != 2 {
			t.Fatalf("degree(%d) = %d, want 2", v, g.Degree(v))
		}
	}
}

func TestFromEdgesDedupAndSelfLoops(t *testing.T) {
	edges := []Edge{{0, 1}, {1, 0}, {0, 1}, {2, 2}, {1, 2}}
	g := FromEdges(3, edges)
	if g.NumEdges() != 2 {
		t.Fatalf("m = %d, want 2 (dedup + self-loop removal)", g.NumEdges())
	}
	if g.HasEdge(2, 2) {
		t.Fatal("self loop survived")
	}
}

func TestFromEdgesPanicsOnOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range edge")
		}
	}()
	FromEdges(2, []Edge{{0, 5}})
}

func TestNeighborhoodsSortedAndSymmetric(t *testing.T) {
	check := func(seed uint64) bool {
		g := randomGraph(seed, 50, 200)
		for v := 0; v < g.NumVertices(); v++ {
			nv := g.Neighbors(Vertex(v))
			if !slices.IsSorted(nv) {
				return false
			}
			for _, u := range nv {
				if !slices.Contains(g.Neighbors(u), Vertex(v)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestHasEdge(t *testing.T) {
	g := FromEdges(4, []Edge{{0, 1}, {1, 2}})
	cases := []struct {
		u, v Vertex
		want bool
	}{
		{0, 1, true}, {1, 0, true}, {1, 2, true}, {0, 2, false}, {3, 0, false},
	}
	for _, c := range cases {
		if got := g.HasEdge(c.u, c.v); got != c.want {
			t.Errorf("HasEdge(%d,%d) = %v, want %v", c.u, c.v, got, c.want)
		}
	}
}

func TestForEachEdgeCanonical(t *testing.T) {
	g := randomGraph(3, 40, 160)
	count := 0
	g.ForEachEdge(func(u, v Vertex) {
		if u >= v {
			t.Fatalf("non-canonical edge (%d,%d)", u, v)
		}
		count++
	})
	if count != g.NumEdges() {
		t.Fatalf("visited %d edges, want %d", count, g.NumEdges())
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	g := randomGraph(7, 60, 300)
	g2 := FromEdges(g.NumVertices(), g.Edges())
	if g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip changed m: %d vs %d", g2.NumEdges(), g.NumEdges())
	}
	for v := 0; v < g.NumVertices(); v++ {
		if !slices.Equal(g.Neighbors(Vertex(v)), g2.Neighbors(Vertex(v))) {
			t.Fatalf("neighborhood of %d differs", v)
		}
	}
}

func TestOrientationPartitionsEdges(t *testing.T) {
	// Every undirected edge appears in exactly one of the two out-lists.
	check := func(seed uint64) bool {
		g := randomGraph(seed, 60, 240)
		o := Orient(g)
		total := 0
		for v := 0; v < g.NumVertices(); v++ {
			total += o.OutDegree(Vertex(v))
			for _, u := range o.Out(Vertex(v)) {
				// Antisymmetry: u must not also list v.
				if slices.Contains(o.Out(u), Vertex(v)) {
					return false
				}
				// Orientation property: v ≺ u.
				if !Less(g.Degree(Vertex(v)), Vertex(v), g.Degree(u), u) {
					return false
				}
			}
		}
		return total == g.NumEdges()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestLessIsTotalOrder(t *testing.T) {
	type vd struct {
		v Vertex
		d int
	}
	vs := []vd{{0, 3}, {1, 3}, {2, 1}, {3, 7}, {4, 3}}
	for _, a := range vs {
		for _, b := range vs {
			la := Less(a.d, a.v, b.d, b.v)
			lb := Less(b.d, b.v, a.d, a.v)
			if a.v == b.v {
				if la || lb {
					t.Fatal("irreflexivity violated")
				}
				continue
			}
			if la == lb {
				t.Fatalf("totality/antisymmetry violated for %v %v", a, b)
			}
		}
	}
}

// TestPrecedesAgreesWithLess holds the 0/1 form of ≺ to its definition —
// d(u) < d(v), or equal degrees and u < v — and Less to the same, on the
// boundary degrees and IDs and on random pairs (small degrees, so ties are
// common).
func TestPrecedesAgreesWithLess(t *testing.T) {
	def := func(du int, u Vertex, dv int, v Vertex) bool {
		if du != dv {
			return du < dv
		}
		return u < v
	}
	check := func(du int, u Vertex, dv int, v Vertex) {
		t.Helper()
		want := def(du, u, dv, v)
		if got := precedes(du, u, dv, v); got > 1 || (got == 1) != want {
			t.Fatalf("precedes(%d, %d, %d, %d) = %d, want %v", du, u, dv, v, got, want)
		}
		if got := Less(du, u, dv, v); got != want {
			t.Fatalf("Less(%d, %d, %d, %d) = %v, want %v", du, u, dv, v, got, want)
		}
	}
	degs := []int{0, 1, 2, math.MaxInt}
	ids := []Vertex{0, 1, 2, ^Vertex(0)}
	for _, du := range degs {
		for _, dv := range degs {
			for _, u := range ids {
				for _, v := range ids {
					check(du, u, dv, v)
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(28))
	for i := 0; i < 100000; i++ {
		check(rng.Intn(4), Vertex(rng.Intn(8)), rng.Intn(4), Vertex(rng.Intn(8)))
		check(rng.Int(), rng.Uint64(), rng.Int(), rng.Uint64())
	}
}

func TestOrientReducesMaxOutDegree(t *testing.T) {
	// A star: the hub has degree n but out-degree 0 under degree orientation.
	var edges []Edge
	for v := 1; v <= 50; v++ {
		edges = append(edges, Edge{0, Vertex(v)})
	}
	g := FromEdges(51, edges)
	o := Orient(g)
	if d := o.OutDegree(0); d != 0 {
		t.Fatalf("hub out-degree %d, want 0", d)
	}
}

func TestOrientedWedgesCompleteGraph(t *testing.T) {
	// For K_n the degree orientation is a total order, so out-degrees are
	// 0..n-1 and Σ C(d⁺,2) = C(n,3).
	n := 10
	var edges []Edge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			edges = append(edges, Edge{Vertex(u), Vertex(v)})
		}
	}
	g := FromEdges(n, edges)
	want := uint64(n * (n - 1) * (n - 2) / 6)
	if w := Orient(g).Wedges(); w != want {
		t.Fatalf("wedges = %d, want %d", w, want)
	}
}

func TestComputeStats(t *testing.T) {
	g := FromEdges(3, triangleEdges())
	s := ComputeStats(g)
	if s.N != 3 || s.M != 3 || s.MaxDegree != 2 || s.Wedges != 1 {
		t.Fatalf("unexpected stats %+v", s)
	}
	if s.AvgDegree != 2 {
		t.Fatalf("avg degree %v, want 2", s.AvgDegree)
	}
}

// randomGraph builds a deterministic pseudo-random multigraph input (with
// intentional duplicates and self loops to exercise cleaning).
func randomGraph(seed uint64, n, m int) *Graph {
	s := seed
	next := func() uint64 {
		s += 0x9E3779B97F4A7C15
		z := s
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{next() % uint64(n), next() % uint64(n)}
	}
	return FromEdges(n, edges)
}
