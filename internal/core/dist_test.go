package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/comm"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/part"
	"repro/internal/testgraph"
)

// testGraphs returns the shared fixture catalog: a diverse set of instances
// with precomputed exact triangle counts, spanning every structural regime
// the algorithms care about (see internal/testgraph).
func testGraphs() map[string]*graph.Graph {
	return testgraph.Map()
}

var testPEs = []int{1, 2, 3, 4, 7, 8}

// variant labels a test cell: an engine plus the config bits the paper's
// other algorithm names stand for — ditric2 and cetric2 are DITRIC and
// CETRIC with Indirect, noagg is DITRIC with δ = 1.
type variant struct {
	name     string
	algo     Algorithm
	indirect bool
	noAgg    bool
}

var (
	vDiTric  = variant{name: "ditric", algo: AlgoDiTric}
	vDiTric2 = variant{name: "ditric2", algo: AlgoDiTric, indirect: true}
	vCetric  = variant{name: "cetric", algo: AlgoCetric}
	vCetric2 = variant{name: "cetric2", algo: AlgoCetric, indirect: true}
	vNoAgg   = variant{name: "noagg", algo: AlgoDiTric, noAgg: true}
	vHavoq   = variant{name: "havoq", algo: AlgoHavoq}
	vTriC    = variant{name: "tric", algo: AlgoTriC}
	vTK2D    = variant{name: "tk2d", algo: AlgoTK2D}
)

// paperVariants are the six algorithms of the paper's figures, in order.
var paperVariants = []variant{vDiTric, vDiTric2, vCetric, vCetric2, vHavoq, vTriC}

func (v variant) String() string { return v.name }

// config sets the variant's bits on cfg.
func (v variant) config(cfg Config) Config {
	cfg.Indirect = cfg.Indirect || v.indirect
	if v.noAgg {
		cfg.Threshold = 1
	}
	return cfg
}

// run is Run under the variant's bits.
func (v variant) run(g *graph.Graph, cfg Config) (*Result, error) {
	return Run(v.algo, g, v.config(cfg))
}

func TestDistributedAlgorithmsMatchSequential(t *testing.T) {
	for _, fix := range testgraph.All {
		name, g, want := fix.Name, fix.Build(), fix.Triangles
		if got := SeqCount(g); got != want {
			t.Fatalf("SeqCount(%s) = %d, fixture says %d", name, got, want)
		}
		for _, algo := range paperVariants {
			for _, p := range testPEs {
				t.Run(fmt.Sprintf("%s/%s/p=%d", algo, name, p), func(t *testing.T) {
					res, err := algo.run(g, Config{P: p})
					if err != nil {
						t.Fatal(err)
					}
					if res.Count != want {
						t.Fatalf("%s on %s with p=%d: count = %d, want %d", algo, name, p, res.Count, want)
					}
				})
			}
		}
	}
}

func TestCetricTypeCountsSumToTotal(t *testing.T) {
	for name, g := range testGraphs() {
		want := SeqCount(g)
		for _, p := range []int{1, 3, 4, 8} {
			res, err := Run(AlgoCetric, g, Config{P: p})
			if err != nil {
				t.Fatal(err)
			}
			sum := res.TypeCounts[0] + res.TypeCounts[1] + res.TypeCounts[2]
			if sum != want {
				t.Errorf("%s p=%d: type counts %v sum to %d, want %d", name, p, res.TypeCounts, sum, want)
			}
			if p == 1 && (res.TypeCounts[1] != 0 || res.TypeCounts[2] != 0) {
				t.Errorf("%s p=1: expected only type-1 triangles, got %v", name, res.TypeCounts)
			}
		}
	}
}

func TestDistributedLCCMatchesSequential(t *testing.T) {
	for name, g := range testGraphs() {
		wantCount, wantDeltas := SeqDeltas(g)
		for _, algo := range []variant{vDiTric, vDiTric2, vCetric, vCetric2} {
			for _, p := range []int{1, 3, 4, 8} {
				res, err := algo.run(g, Config{P: p, LCC: true})
				if err != nil {
					t.Fatal(err)
				}
				if res.Count != wantCount {
					t.Fatalf("%s/%s p=%d: count %d want %d", algo, name, p, res.Count, wantCount)
				}
				for v, want := range wantDeltas {
					if res.Deltas[v] != want {
						t.Fatalf("%s/%s p=%d: Δ(%d) = %d, want %d", algo, name, p, v, res.Deltas[v], want)
					}
				}
			}
		}
	}
}

func TestDistributedEnumerationMatchesSequential(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(7, 3))
	want := make(map[[3]graph.Vertex]bool)
	SeqEnumerate(g, func(v, u, w graph.Vertex) { want[CanonTriangle(v, u, w)] = true })
	for _, algo := range []variant{vDiTric, vCetric, vCetric2} {
		for _, p := range []int{2, 5} {
			res, err := algo.run(g, Config{P: p, Collect: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Triangles) != len(want) {
				t.Fatalf("%s p=%d: %d triangles collected, want %d", algo, p, len(res.Triangles), len(want))
			}
			seen := make(map[[3]graph.Vertex]bool)
			for _, tri := range res.Triangles {
				if seen[tri] {
					t.Fatalf("%s p=%d: duplicate triangle %v", algo, p, tri)
				}
				seen[tri] = true
				if !want[tri] {
					t.Fatalf("%s p=%d: spurious triangle %v", algo, p, tri)
				}
			}
		}
	}
}

// TestDegreeExchangeRejectsHostileFrames: a degree request for a vertex the
// PE does not own, and a degree reply that is shorter or longer than the
// request or names an impossible degree, are corrupt frames from the peer
// that sent them — never an index panic, and never a ghost degree left at −1
// or wrapped from 2^64−1.
func TestDegreeExchangeRejectsHostileFrames(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(6, 3))
	n := uint64(g.NumVertices())
	pt := part.Uniform(n, 2)
	lg := graph.BuildLocalCSR(pt, 0, g, 1)
	ghosts := lg.Ghosts() // every ghost of PE 0 is owned by PE 1
	if len(ghosts) < 2 {
		t.Fatalf("fixture has %d ghosts on PE 0, need 2", len(ghosts))
	}
	degs := make([]uint64, len(ghosts))
	for k, gid := range ghosts {
		degs[k] = uint64(g.Degree(gid))
	}
	corrupt := func(what string, src int, fn func()) {
		t.Helper()
		defer func() {
			t.Helper()
			r := recover()
			if cf, ok := r.(*comm.CorruptFrameError); !ok || cf.Src != src {
				t.Fatalf("%s: recovered %#v, want *comm.CorruptFrameError from %d", what, r, src)
			}
		}()
		fn()
	}
	corrupt("short reply", 1, func() { applyDegreeReply(lg, 1, ghosts, degs[:len(degs)-1]) })
	corrupt("long reply", 1, func() { applyDegreeReply(lg, 1, ghosts, append(slices.Clone(degs), 1)) })
	corrupt("unrequested reply", 1, func() { applyDegreeReply(lg, 1, nil, degs[:1]) })
	huge := slices.Clone(degs)
	huge[1] = ^uint64(0)
	corrupt("degree 2^64-1", 1, func() { applyDegreeReply(lg, 1, ghosts, huge) })
	huge[1] = n
	corrupt("degree n", 1, func() { applyDegreeReply(lg, 1, ghosts, huge) })
	corrupt("request for a ghost", 1, func() { ownedDegree(lg, 1, ghosts[0]) })
	corrupt("request past n", 1, func() { ownedDegree(lg, 1, n) })
	corrupt("request for 2^64-1", 1, func() { ownedDegree(lg, 1, ^uint64(0)) })

	applyDegreeReply(lg, 1, ghosts, degs)
	for _, gid := range ghosts {
		if row, _ := lg.GhostRow(gid); lg.Degree(row) != g.Degree(gid) {
			t.Fatalf("ghost %d: degree %d, want %d", gid, lg.Degree(row), g.Degree(gid))
		}
	}
	for v := lg.First; v < lg.Last; v++ {
		if got := ownedDegree(lg, 1, v); got != uint64(g.Degree(v)) {
			t.Fatalf("ownedDegree(%d) = %d, want %d", v, got, g.Degree(v))
		}
	}
}

func TestNonUniformPartitions(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(8, 21))
	want := SeqCount(g)
	for _, reverse := range []bool{false, true} {
		pt := skewedPartition(uint64(g.NumVertices()), 5, reverse)
		for _, algo := range []Algorithm{AlgoDiTric, AlgoCetric, AlgoHavoq, AlgoTriC} {
			res, err := Run(algo, g, Config{P: 5, Partition: pt})
			if err != nil {
				t.Fatal(err)
			}
			if res.Count != want {
				t.Fatalf("%s with skewed partition (reverse=%v): %d, want %d", algo, reverse, res.Count, want)
			}
		}
	}
}

func TestHybridThreadsMatchSequential(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(9, 31))
	want := SeqCount(g)
	for _, algo := range []variant{vDiTric, vDiTric2, vCetric} {
		for _, threads := range []int{2, 4} {
			res, err := algo.run(g, Config{P: 4, Threads: threads})
			if err != nil {
				t.Fatal(err)
			}
			if res.Count != want {
				t.Fatalf("%s threads=%d: %d, want %d", algo, threads, res.Count, want)
			}
		}
	}
}

func TestHybridLCC(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(8, 37))
	_, wantDeltas := SeqDeltas(g)
	res, err := Run(AlgoCetric, g, Config{P: 3, Threads: 4, LCC: true})
	if err != nil {
		t.Fatal(err)
	}
	for v, want := range wantDeltas {
		if res.Deltas[v] != want {
			t.Fatalf("hybrid LCC: Δ(%d) = %d, want %d", v, res.Deltas[v], want)
		}
	}
}

func TestTinyThresholdStillCorrect(t *testing.T) {
	// Aggressive flushing (δ=1 word) must not change results, only costs.
	g := gen.GNM(150, 900, 77)
	want := SeqCount(g)
	for _, algo := range []variant{vDiTric, vDiTric2, vCetric2, vHavoq} {
		res, err := algo.run(g, Config{P: 7, Threshold: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != want {
			t.Fatalf("%s δ=1: %d, want %d", algo, res.Count, want)
		}
	}
}

func TestNoSurrogateHybrid(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(8, 67))
	want := SeqCount(g)
	res, err := Run(AlgoDiTric, g, Config{P: 4, Threads: 3, noSurrogate: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != want {
		t.Fatalf("hybrid no-surrogate: %d, want %d", res.Count, want)
	}
}

func TestNoSurrogateLCC(t *testing.T) {
	g := gen.GNM(300, 2400, 71)
	_, wantDeltas := SeqDeltas(g)
	res, err := Run(AlgoCetric, g, Config{P: 5, noSurrogate: true, LCC: true})
	if err != nil {
		t.Fatal(err)
	}
	for v, want := range wantDeltas {
		if res.Deltas[v] != want {
			t.Fatalf("no-surrogate LCC: Δ(%d) = %d, want %d", v, res.Deltas[v], want)
		}
	}
}
