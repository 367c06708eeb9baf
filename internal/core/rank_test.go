package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/part"
	"repro/internal/testgraph"
	"repro/internal/transport"
)

// runRanks drives every rank of an in-process ChanNetwork through RunRank,
// one goroutine per rank the way a real cluster runs one process per rank,
// and fails t on any rank's error.
func runRanks(t *testing.T, algo Algorithm, g *graph.Graph, cfg Config, p int) ([]uint64, []comm.Metrics) {
	t.Helper()
	counts, metrics, errs := tryRanks(t, algo, g, cfg, p)
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return counts, metrics
}

// tryRanks is runRanks returning each rank's error instead of failing on it.
func tryRanks(t *testing.T, algo Algorithm, g *graph.Graph, cfg Config, p int) ([]uint64, []comm.Metrics, []error) {
	t.Helper()
	net := transport.NewChanNetwork(p)
	defer net.Close()
	counts := make([]uint64, p)
	metrics := make([]comm.Metrics, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		ep, err := net.Endpoint(r)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			counts[r], metrics[r], errs[r] = RunRank(algo, g, cfg, ep)
		}(r)
	}
	wg.Wait()
	return counts, metrics, errs
}

// ditricRecords counts the (v, A(v)) records rank ships under DITRIC's
// surrogate dedup: one per local vertex with |A(v)| ≥ 2 and distinct remote
// rank among A(v)'s owners. Computed from the global orientation,
// independently of the distributed bodies.
func ditricRecords(g *graph.Graph, pt *part.Partition, rank int) int64 {
	o := graph.Orient(g)
	lo, hi := pt.Range(rank)
	var records int64
	for v := lo; v < hi; v++ {
		av := o.Out(v)
		if len(av) < 2 {
			continue
		}
		seen := make(map[int]bool)
		for _, u := range av {
			if j := pt.Rank(u); j != rank && !seen[j] {
				seen[j] = true
				records++
			}
		}
	}
	return records
}

// TestRunRankMatchesSequential: the process-PE entry point agrees with the
// sequential oracle on every rank, for 1D and 2D geometries alike, and the
// "no aggregation" baseline really is unaggregated there too — δ = 1 makes
// every record, shipments and degree records alike, its own flush.
func TestRunRankMatchesSequential(t *testing.T) {
	for _, name := range []string{"K12", "rmat", "rgg"} {
		fx, _ := testgraph.ByName(name)
		g := fx.Build()
		if want := SeqCount(g); want != fx.Triangles {
			t.Fatalf("%s: SeqCount %d, fixture says %d", name, want, fx.Triangles)
		}
		for _, algo := range []variant{vDiTric, vCetric2, vNoAgg, vTK2D} {
			for _, p := range []int{1, 4, 6} {
				t.Run(fmt.Sprintf("%s/%s/p=%d", name, algo, p), func(t *testing.T) {
					counts, metrics := runRanks(t, algo.algo, g, algo.config(Config{}), p)
					for r, c := range counts {
						if c != fx.Triangles {
							t.Fatalf("rank %d returned %d, want %d", r, c, fx.Triangles)
						}
					}
					if algo != vNoAgg {
						return
					}
					pt := part.Uniform(uint64(g.NumVertices()), p)
					ghosts := ghostsByOwner(g, pt)
					for r, m := range metrics {
						// Besides its shipments a rank sends a degree request to
						// each owner of its ghosts, and a degree and an
						// out-degree reply to each PE that asked it.
						want := ditricRecords(g, pt, r)
						for o := range ghosts {
							if ghosts[r][o] > 0 {
								want++
							}
							if ghosts[o][r] > 0 {
								want += 2
							}
						}
						if m.Flushes != want {
							t.Fatalf("rank %d flushed %d times for %d records", r, m.Flushes, want)
						}
					}
				})
			}
		}
	}
}

// TestRunRankWatchdog: a rank whose peer never starts is released by the
// comm watchdog RunRank arms (plan.enter), and reports it the way dist.Run
// would — a *dist.RunError with CauseWatchdog — instead of spinning forever
// or crashing the process with the comm layer's panic.
func TestRunRankWatchdog(t *testing.T) {
	fx, _ := testgraph.ByName("K12")
	net := transport.NewChanNetwork(2)
	defer net.Close()
	ep, err := net.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, _, err = RunRank(AlgoCetric, fx.Build(), Config{CommDeadline: 100 * time.Millisecond}, ep)
	var re *dist.RunError
	if !errors.As(err, &re) || re.Cause != dist.CauseWatchdog || re.Rank != 0 {
		t.Fatalf("RunRank returned %v, want a rank-0 watchdog RunError", err)
	}
	if wall := time.Since(start); wall > 5*time.Second {
		t.Fatalf("watchdog took %v to release the rank", wall)
	}
}

// malformedGraphs returns CSRs that break, in vertex 5's row alone, one each
// of the invariants the slab builders check: ascending order, no self-loop,
// no ID ≥ n. The base is the 8-cycle with its four diameters.
func malformedGraphs() map[string]*graph.Graph {
	base := func() [][]graph.Vertex {
		rows := make([][]graph.Vertex, 8)
		for v := range rows {
			u := graph.Vertex(v)
			rows[v] = []graph.Vertex{(u + 1) % 8, (u + 4) % 8, (u + 7) % 8}
			slices.Sort(rows[v])
		}
		return rows
	}
	build := func(mutate func(row5 []graph.Vertex) []graph.Vertex) *graph.Graph {
		rows := base()
		rows[5] = mutate(rows[5])
		off := []int64{0}
		var adj []graph.Vertex
		for _, row := range rows {
			adj = append(adj, row...)
			off = append(off, int64(len(adj)))
		}
		return graph.FromSortedAdjacency(off, adj)
	}
	return map[string]*graph.Graph{
		"unsorted":     build(func(r []graph.Vertex) []graph.Vertex { r[0], r[1] = r[1], r[0]; return r }),
		"self-loop":    build(func(r []graph.Vertex) []graph.Vertex { return []graph.Vertex{1, 4, 5, 6} }),
		"out of range": build(func(r []graph.Vertex) []graph.Vertex { return append(r, 11) }),
	}
}

// TestEntryPointsRejectMalformedCSR: a graph.FromSortedAdjacency caller that
// breaks a row invariant gets an error naming the vertex from every one-shot
// entry point and both geometries — never a count, never a hang.
func TestEntryPointsRejectMalformedCSR(t *testing.T) {
	requireRowError := func(t *testing.T, what string, err error) {
		t.Helper()
		var re *dist.RunError
		if !errors.As(err, &re) || re.Cause != dist.CauseBody || !strings.Contains(err.Error(), "row of vertex 5 on PE") {
			t.Fatalf("%s: %v, want a body RunError naming vertex 5", what, err)
		}
	}
	for name, g := range malformedGraphs() {
		t.Run(name, func(t *testing.T) {
			for _, algo := range []Algorithm{AlgoDiTric, AlgoCetric, AlgoTK2D} {
				for _, p := range []int{1, 2, 4} {
					res, err := Run(algo, g, Config{P: p})
					if res != nil {
						t.Fatalf("Run(%s, p=%d) counted %d triangles", algo, p, res.Count)
					}
					requireRowError(t, fmt.Sprintf("Run(%s, p=%d)", algo, p), err)
				}
			}
			ares, err := RunApproxCetric(g, Config{P: 2}, AMQConfig{})
			if ares != nil {
				t.Fatalf("RunApproxCetric estimated %v", ares.Estimate)
			}
			requireRowError(t, "RunApproxCetric", err)

			// Two process-style ranks: vertex 5's owner reports the row, its
			// peer is released by the watchdog.
			for _, algo := range []Algorithm{AlgoCetric, AlgoTK2D} {
				net := transport.NewChanNetwork(2)
				errs := make([]error, 2)
				var wg sync.WaitGroup
				for r := range errs {
					ep, err := net.Endpoint(r)
					if err != nil {
						t.Fatal(err)
					}
					wg.Add(1)
					go func(r int) {
						defer wg.Done()
						_, _, errs[r] = RunRank(algo, g, Config{CommDeadline: 200 * time.Millisecond}, ep)
					}(r)
				}
				wg.Wait()
				net.Close()
				requireRowError(t, fmt.Sprintf("RunRank(%s) rank 1", algo), errs[1])
				if errs[0] == nil {
					t.Fatalf("RunRank(%s) rank 0 returned a count", algo)
				}
			}
		})
	}
}

// TestEntryPointsRejectAlike: every entry point validates through the same
// plan, so a configuration Run rejects is rejected — with the same error —
// by RunRank, RunStream and RunApproxCetric.
func TestEntryPointsRejectAlike(t *testing.T) {
	fx, _ := testgraph.ByName("K12")
	g := fx.Build()
	n := uint64(g.NumVertices())
	const p = 2
	for _, tc := range []struct {
		name string
		algo Algorithm
		cfg  Config
	}{
		{"unknown placement", AlgoCetric, Config{Partition: part.Uniform(n, p+1)}},
		{"partition shape", AlgoCetric, Config{Partition: part.Uniform(n+1, p)}},
		{"LCC on a baseline", AlgoTriC, Config{LCC: true}},
		{"Collect on a baseline", AlgoTriC, Config{Collect: true}},
		{"LCC on tk2d", AlgoTK2D, Config{LCC: true}},
		{"1D partition on tk2d", AlgoTK2D, Config{Partition: part.Uniform(n, p)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.P = p
			_, want := Run(tc.algo, g, cfg)
			if want == nil {
				t.Fatal("Run accepted the configuration")
			}
			net := transport.NewChanNetwork(p)
			defer net.Close()
			ep, err := net.Endpoint(0)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := RunRank(tc.algo, g, tc.cfg, ep); err == nil || err.Error() != want.Error() {
				t.Fatalf("RunRank: %v, want %v", err, want)
			}
			if tc.algo != AlgoCetric {
				return // the streaming and AMQ entry points are CETRIC-family only
			}
			if _, err := RunStream(tc.algo, n, SliceBatches(g.Edges(), 0), nil, cfg); err == nil || err.Error() != want.Error() {
				t.Fatalf("RunStream: %v, want %v", err, want)
			}
			if _, err := RunApproxCetric(g, cfg, AMQConfig{}); err == nil || err.Error() != want.Error() {
				t.Fatalf("RunApproxCetric: %v, want %v", err, want)
			}
		})
	}
}
