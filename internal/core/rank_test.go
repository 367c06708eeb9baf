package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/part"
	"repro/internal/testgraph"
	"repro/internal/transport"
)

// runRanks drives every rank of an in-process ChanNetwork through RunRank,
// one goroutine per rank the way a real cluster runs one process per rank.
func runRanks(t *testing.T, algo Algorithm, g *graph.Graph, cfg Config, p int) ([]uint64, []comm.Metrics) {
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
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return counts, metrics
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
// every shipped record its own flush.
func TestRunRankMatchesSequential(t *testing.T) {
	for _, name := range []string{"K12", "rmat", "rgg"} {
		fx, _ := testgraph.ByName(name)
		g := fx.Build()
		if want := SeqCount(g); want != fx.Triangles {
			t.Fatalf("%s: SeqCount %d, fixture says %d", name, want, fx.Triangles)
		}
		for _, algo := range []Algorithm{AlgoDiTric, AlgoCetric2, AlgoNoAgg, AlgoTK2D} {
			for _, p := range []int{1, 4, 6} {
				t.Run(fmt.Sprintf("%s/%s/p=%d", name, algo, p), func(t *testing.T) {
					counts, metrics := runRanks(t, algo, g, Config{}, p)
					for r, c := range counts {
						if c != fx.Triangles {
							t.Fatalf("rank %d returned %d, want %d", r, c, fx.Triangles)
						}
					}
					if algo != AlgoNoAgg {
						return
					}
					pt := part.Uniform(uint64(g.NumVertices()), p)
					for r, m := range metrics {
						if want := ditricRecords(g, pt, r); m.Flushes != want {
							t.Fatalf("rank %d flushed %d times for %d records", r, m.Flushes, want)
						}
					}
				})
			}
		}
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
		{"unknown profile", AlgoCetric, Config{Profile: "nope"}},
		{"unknown placement", AlgoCetric, Config{Placement: "nope"}},
		{"unknown codec", AlgoCetric, Config{Codec: "nope"}},
		{"partition shape", AlgoCetric, Config{Partition: part.Uniform(n+1, p)}},
		{"LCC on a baseline", AlgoTriC, Config{LCC: true}},
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
