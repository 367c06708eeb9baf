package gen

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/graph"
	"repro/internal/part"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed must give same stream")
		}
	}
	if NewRNG(1).Next() == NewRNG(2).Next() {
		t.Fatal("different seeds should differ")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	rng := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := rng.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestUint64nUniformish(t *testing.T) {
	rng := NewRNG(11)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[rng.Uint64n(n)]++
	}
	for b, c := range counts {
		if c < draws/n*8/10 || c > draws/n*12/10 {
			t.Fatalf("bucket %d count %d too far from %d", b, c, draws/n)
		}
	}
}

func TestHash64Stateless(t *testing.T) {
	if Hash64(1, 2) != Hash64(1, 2) {
		t.Fatal("hash must be deterministic")
	}
	if Hash64(1, 2) == Hash64(1, 3) || Hash64(1, 2) == Hash64(2, 2) {
		t.Fatal("hash should separate inputs")
	}
}

func TestGNMShape(t *testing.T) {
	g := GNM(500, 2000, 3)
	if g.NumVertices() != 500 {
		t.Fatalf("n = %d", g.NumVertices())
	}
	if g.NumEdges() != 2000 {
		t.Fatalf("m = %d, want exactly 2000 (sampling without replacement)", g.NumEdges())
	}
}

func TestGNMCapsAtCompleteGraph(t *testing.T) {
	g := GNM(5, 100, 1)
	if g.NumEdges() != 10 {
		t.Fatalf("m = %d, want 10 = C(5,2)", g.NumEdges())
	}
}

func TestGNMDeterminism(t *testing.T) {
	a, b := GNM(100, 400, 9), GNM(100, 400, 9)
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed, different graphs")
	}
	for v := 0; v < 100; v++ {
		na, nb := a.Neighbors(uint64(v)), b.Neighbors(uint64(v))
		if len(na) != len(nb) {
			t.Fatal("same seed, different neighborhoods")
		}
		for i := range na {
			if na[i] != nb[i] {
				t.Fatal("same seed, different neighborhoods")
			}
		}
	}
}

func TestRMATShape(t *testing.T) {
	cfg := DefaultRMAT(10, 7)
	g := RMAT(cfg)
	if g.NumVertices() != 1024 {
		t.Fatalf("n = %d, want 1024", g.NumVertices())
	}
	// Dedup/self-loop removal shrinks m, but it must stay in a sane band.
	if g.NumEdges() < 8*1024 || g.NumEdges() > 16*1024 {
		t.Fatalf("m = %d out of expected band", g.NumEdges())
	}
}

func TestRMATSkewedDegrees(t *testing.T) {
	g := RMAT(DefaultRMAT(12, 13))
	maxDeg := g.MaxDegree()
	avg := 2 * float64(g.NumEdges()) / float64(g.NumVertices())
	if float64(maxDeg) < 8*avg {
		t.Fatalf("R-MAT should be skewed: max %d vs avg %.1f", maxDeg, avg)
	}
}

func TestScrambleIsPermutation(t *testing.T) {
	check := func(seed uint64) bool {
		const n = 256
		seen := make([]bool, n)
		for x := uint64(0); x < n; x++ {
			sc := newScrambler(n, seed)
			y := sc.apply(x)
			if y >= n || seen[y] {
				return false
			}
			seen[y] = true
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestRGG2DEdgeCount(t *testing.T) {
	g := RGG2D(4096, 16, 21)
	m := float64(g.NumEdges())
	want := 16.0 * 4096
	if m < want/2 || m > want*2 {
		t.Fatalf("RGG edges %v, want within 2x of %v", m, want)
	}
}

func TestRGG2DLocality(t *testing.T) {
	// With cell-order IDs, a contiguous partition must cut far fewer edges
	// than a random graph of the same size would (where cut fraction is
	// (p-1)/p).
	g := RGG2D(2048, 16, 33)
	pt := part.Uniform(uint64(g.NumVertices()), 8)
	cut := 0
	g.ForEachEdge(func(u, v graph.Vertex) {
		if pt.Rank(u) != pt.Rank(v) {
			cut++
		}
	})
	frac := float64(cut) / float64(g.NumEdges())
	if frac > 0.5 {
		t.Fatalf("RGG cut fraction %.2f too high; ID locality broken", frac)
	}
}

func TestRHGShape(t *testing.T) {
	g := RHG(RHGConfig{N: 2048, AvgDegree: 16, Gamma: 2.8, Seed: 5})
	if g.NumVertices() != 2048 {
		t.Fatalf("n = %d", g.NumVertices())
	}
	avg := 2 * float64(g.NumEdges()) / float64(g.NumVertices())
	if avg < 4 || avg > 64 {
		t.Fatalf("RHG avg degree %.1f too far from target 16", avg)
	}
	// Power-law: the maximum degree should dwarf the average.
	if float64(g.MaxDegree()) < 4*avg {
		t.Fatalf("RHG not skewed: max %d avg %.1f", g.MaxDegree(), avg)
	}
}

func TestRHGMatchesBruteForce(t *testing.T) {
	// The band data structure must produce exactly the same edges as the
	// O(n²) distance check.
	cfg := RHGConfig{N: 300, AvgDegree: 10, Gamma: 2.8, Seed: 77}
	g := RHG(cfg)

	// Recompute points exactly as RHG does.
	alpha := (cfg.Gamma - 1) / 2
	xi := alpha / (alpha - 0.5)
	nu := cfg.AvgDegree * math.Pi / (2 * xi * xi)
	R := 2 * math.Log(float64(cfg.N)/nu)
	theta := make([]float64, cfg.N)
	rad := make([]float64, cfg.N)
	for i := 0; i < cfg.N; i++ {
		theta[i] = 2 * math.Pi * HashFloat64(cfg.Seed, uint64(2*i))
		u := HashFloat64(cfg.Seed, uint64(2*i+1))
		rad[i] = math.Acosh(1+u*(math.Cosh(alpha*R)-1)) / alpha
	}
	// Sort by angle like the generator (stable order by (theta, index)).
	ids := make([]int, cfg.N)
	for i := range ids {
		ids[i] = i
	}
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && theta[ids[j]] < theta[ids[j-1]]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	th := make([]float64, cfg.N)
	rd := make([]float64, cfg.N)
	for newID, oldID := range ids {
		th[newID] = theta[oldID]
		rd[newID] = rad[oldID]
	}
	want := 0
	coshR := math.Cosh(R)
	for u := 0; u < cfg.N; u++ {
		for v := u + 1; v < cfg.N; v++ {
			if hypDistLE(math.Cosh(rd[u]), math.Sinh(rd[u]), math.Cosh(rd[v]), math.Sinh(rd[v]), th[u], th[v], coshR) {
				want++
				if !g.HasEdge(uint64(u), uint64(v)) {
					t.Fatalf("missing edge (%d,%d)", u, v)
				}
			}
		}
	}
	if g.NumEdges() != want {
		t.Fatalf("m = %d, brute force says %d", g.NumEdges(), want)
	}
}

func TestWebGraphClustering(t *testing.T) {
	g := WebGraph(WebConfig{N: 512, HostSize: 16, IntraP: 0.5, LongFactor: 2, Seed: 3})
	if g.NumVertices() != 512 {
		t.Fatalf("n = %d", g.NumVertices())
	}
	// Host cliques give high triangle density per edge; verify at least one
	// triangle per 2 edges on average (web-like, unlike GNM).
	stats := graph.ComputeStats(g)
	if stats.Wedges == 0 {
		t.Fatal("web graph has no wedges")
	}
}

// webGraphOneStream is WebGraph's model drawn from one stream in its own
// order, all host pairs and then all long links: the oracle for the
// chunks that jump ahead in it.
func webGraphOneStream(cfg WebConfig) *graph.Graph {
	rng := NewRNG(cfg.Seed)
	var edges []graph.Edge
	for base := 0; base < cfg.N; base += cfg.HostSize {
		end := min(base+cfg.HostSize, cfg.N)
		for u := base; u < end; u++ {
			for v := u + 1; v < end; v++ {
				if rng.Float64() < cfg.IntraP {
					edges = append(edges, graph.Edge{U: uint64(u), V: uint64(v)})
				}
			}
		}
	}
	for u := 0; u < cfg.N; u++ {
		for k := 0; k < cfg.LongFactor; k++ {
			t := rng.Float64()
			if v := min(int(t*t*float64(cfg.N)), cfg.N-1); v != u {
				edges = append(edges, graph.Edge{U: uint64(u), V: uint64(v)})
			}
		}
	}
	return graph.FromEdges(cfg.N, edges)
}

// TestWebGraphChunksMatchOneStream checks WebGraph's jump-ahead chunks
// against one stream at 1, 2, 3 and 8 workers, on host sizes that do and
// do not divide the chunk size, so hosts straddle chunks, with a short last
// host, and on graphs of one chunk and of a few.
func TestWebGraphChunksMatchOneStream(t *testing.T) {
	defer func(saved int) { threads = saved }(threads)
	for _, cfg := range []WebConfig{
		{N: 5000, HostSize: 24, IntraP: 0.3, LongFactor: 3, Seed: 7},
		{N: 4096, HostSize: 32, IntraP: 0.4, LongFactor: 3, Seed: 42},
		{N: 3001, HostSize: 700, IntraP: 0.05, LongFactor: 1, Seed: 1},
		{N: 2500, HostSize: 1, IntraP: 0.5, LongFactor: 4, Seed: 9},
		{N: 300, HostSize: 7, IntraP: 1, LongFactor: 0, Seed: 2},
		{N: 0, HostSize: 16, IntraP: 0.5, LongFactor: 3, Seed: 3},
	} {
		want := fingerprint(webGraphOneStream(cfg))
		for _, w := range []int{1, 2, 3, 8} {
			threads = w
			if got := fingerprint(WebGraph(cfg)); got != want {
				t.Errorf("%+v at %d workers: fingerprint %016x, one stream %016x", cfg, w, got, want)
			}
		}
	}
}

func TestRoadNetworkProfile(t *testing.T) {
	g := RoadNetwork(32, 32, 0.05, 9)
	avg := 2 * float64(g.NumEdges()) / float64(g.NumVertices())
	if avg < 3 || avg > 5 {
		t.Fatalf("road avg degree %.2f out of band", avg)
	}
	if g.MaxDegree() > 8 {
		t.Fatalf("road max degree %d too high", g.MaxDegree())
	}
}

// Families lists ByFamily's weak-scaling families in the order of Fig. 5.
func Families() []string { return []string{"rgg2d", "rhg", "gnm", "rmat"} }

func TestByFamily(t *testing.T) {
	for _, fam := range Families() {
		g, err := ByFamily(fam, 256, 8, 5)
		if err != nil {
			t.Fatal(err)
		}
		if g.NumVertices() < 256 {
			t.Fatalf("%s: n = %d, want >= 256", fam, g.NumVertices())
		}
	}
	if _, err := ByFamily("nope", 10, 1, 1); err == nil {
		t.Fatal("want error for unknown family")
	}
}

// TestByFamilyHostileSizes: every family rejects a negative vertex count or
// edge factor with an error (they used to panic in makeslice, index out of
// range, or run on for minutes), and edge factor 0 gives the edgeless graph
// on n vertices (rhg used to index out of range). A size whose edge list
// n·edge factor overflows int, and an R-MAT size whose scale search passes
// the word size (it used to spin forever), are errors naming n, returned
// before anything is allocated; each cell runs under a deadline, so that a
// hang fails rather than stalls the suite.
func TestByFamilyHostileSizes(t *testing.T) {
	for _, fam := range Families() {
		for _, tc := range []struct {
			name  string
			n, ef int
			ok    bool
		}{
			{"n<0", -5, 16, false},
			{"ef<0", 64, -2, false},
			{"ef=0", 64, 0, true},
			{"huge-n*ef", math.MaxInt / 8, 16, false},
			{"huge-n", math.MaxInt/2 + 2, 1, false},
		} {
			fam, tc := fam, tc // the goroutine below may outlive a failed subtest
			t.Run(fam+"/"+tc.name, func(t *testing.T) {
				type out struct {
					g   *graph.Graph
					err error
				}
				done := make(chan out, 1)
				go func() {
					g, err := ByFamily(fam, tc.n, tc.ef, 3)
					done <- out{g, err}
				}()
				var o out
				select {
				case o = <-done:
				case <-time.After(10 * time.Second):
					t.Fatalf("n=%d ef=%d: no answer within 10 s", tc.n, tc.ef)
				}
				if !tc.ok {
					if o.err == nil {
						t.Fatalf("n=%d ef=%d accepted", tc.n, tc.ef)
					}
					if n := fmt.Sprint(tc.n); tc.n > 0 && !strings.Contains(o.err.Error(), n) {
						t.Fatalf("n=%d ef=%d: error %q does not name n", tc.n, tc.ef, o.err)
					}
					return
				}
				if o.err != nil {
					t.Fatal(o.err)
				}
				if o.g.NumVertices() < tc.n || o.g.NumEdges() != 0 {
					t.Fatalf("n=%d ef=0: %d vertices, %d edges, want ≥ %d and 0", tc.n, o.g.NumVertices(), o.g.NumEdges(), tc.n)
				}
			})
		}
	}
}

func TestDeterministicGraphShapes(t *testing.T) {
	if g := Complete(8); g.NumEdges() != 28 {
		t.Fatalf("K8 m = %d", g.NumEdges())
	}
	if g := CompleteBipartite(3, 5); g.NumEdges() != 15 {
		t.Fatalf("K(3,5) m = %d", g.NumEdges())
	}
	if g := Friendship(4); g.NumVertices() != 9 || g.NumEdges() != 12 {
		t.Fatalf("F4 shape %d/%d", g.NumVertices(), g.NumEdges())
	}
	if g := Grid2D(4, 3); g.NumEdges() != 17 {
		t.Fatalf("grid m = %d", g.NumEdges())
	}
	if g := CliqueChain(3, 4); g.NumEdges() != 3*6+2 {
		t.Fatalf("clique chain m = %d", g.NumEdges())
	}
}

// TestAngleOrderMatchesSortSlice holds RHG's relabel against the
// sort.Slice it replaced, at 1, 2, 3 and 8 workers: on distinct angles
// (enough of them that the buckets sort on several workers), on angles
// with ties, where it must take sort.Slice's order itself, on angles all
// in one bucket and at 2π, and on a single and no angle.
func TestAngleOrderMatchesSortSlice(t *testing.T) {
	defer func(saved int) { threads = saved }(threads)
	distinct := make([]float64, 5000)
	for i := range distinct {
		distinct[i] = 2 * math.Pi * HashFloat64(3, uint64(i))
	}
	ties := make([]float64, 5000)
	for i := range ties {
		ties[i] = float64(Hash64(4, uint64(i))%600) * (2 * math.Pi / 600) // about 8 points per angle
	}
	oneTie := append([]float64(nil), distinct...)
	oneTie[4000] = oneTie[17]
	for name, theta := range map[string][]float64{
		"distinct": distinct, "ties": ties, "one tie": oneTie, "one": {1.5}, "none": {},
		"one bucket": {3e-9, 1e-9, 2e-9, 0}, "2π": {2 * math.Pi, 1, 2 * math.Pi * (1 - 0x1p-53), 0},
	} {
		want := make([]int, len(theta))
		for i := range want {
			want[i] = i
		}
		sort.Slice(want, func(a, b int) bool { return theta[want[a]] < theta[want[b]] })
		for _, w := range []int{1, 2, 3, 8} {
			threads = w
			if got := angleOrder(theta); !slices.Equal(got, want) {
				t.Errorf("%s at %d workers: the order differs from sort.Slice's", name, w)
			}
		}
	}
}
