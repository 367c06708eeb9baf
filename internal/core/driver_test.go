package core

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/leakcheck"
	"repro/internal/part"
	"repro/internal/testgraph"
)

func TestRunRejectsUnknownAlgorithm(t *testing.T) {
	g := gen.Complete(5)
	if _, err := Run(Algorithm("nope"), g, Config{P: 2}); err == nil {
		t.Fatal("want error for unknown algorithm")
	}
}

func TestRunRejectsMissingP(t *testing.T) {
	g := gen.Complete(5)
	if _, err := Run(AlgoDiTric, g, Config{}); err == nil {
		t.Fatal("want error for P=0")
	}
}

func TestRunRejectsPartitionMismatch(t *testing.T) {
	g := gen.Complete(10)
	pt := part.Uniform(10, 3)
	if _, err := Run(AlgoDiTric, g, Config{P: 4, Partition: pt}); err == nil {
		t.Fatal("want error for partition P mismatch")
	}
	pt2 := part.Uniform(99, 4)
	if _, err := Run(AlgoDiTric, g, Config{P: 4, Partition: pt2}); err == nil {
		t.Fatal("want error for partition N mismatch")
	}
}

func TestRunRejectsLCCOnBaselines(t *testing.T) {
	g := gen.Complete(6)
	if _, err := Run(AlgoTriC, g, Config{P: 2, LCC: true}); err == nil {
		t.Fatalf("%s should reject LCC", AlgoTriC)
	}
}

func TestResultPhasesPopulated(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(8, 91))
	res, err := Run(AlgoCetric, g, Config{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, ph := range []string{PhasePreprocess, PhaseLocal, PhaseContraction, PhaseGlobal} {
		if _, ok := res.Phases[ph]; !ok {
			t.Fatalf("phase %q missing from result", ph)
		}
	}
	if _, ok := res.Phases[PhasePostprocess]; ok {
		t.Fatal("postprocess phase should only exist with LCC")
	}
	res2, err := Run(AlgoCetric, g, Config{P: 4, LCC: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res2.Phases[PhasePostprocess]; !ok {
		t.Fatal("postprocess phase missing with LCC")
	}
}

func TestPhaseCommAttribution(t *testing.T) {
	g := gen.GNM(400, 3200, 17)
	res, err := Run(AlgoCetric, g, Config{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	// CETRIC communicates in preprocess (degree exchange) and in the global
	// phase; the local phase must be communication-free.
	if res.PhaseComm[PhasePreprocess].TotalPayload == 0 {
		t.Fatal("preprocess should carry the degree exchange")
	}
	if res.PhaseComm[PhaseLocal].TotalPayload != 0 {
		t.Fatalf("CETRIC local phase should be communication-free, got %d words",
			res.PhaseComm[PhaseLocal].TotalPayload)
	}
	if res.PhaseComm[PhaseGlobal].TotalPayload == 0 {
		t.Fatal("global phase should ship neighborhoods")
	}
}

func TestSinglePEHasNoCommunication(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(8, 97))
	for _, algo := range paperVariants {
		res, err := algo.run(g, Config{P: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Agg.TotalPayload != 0 || res.Agg.TotalFrames != 0 {
			t.Fatalf("%s at p=1 communicated: %+v", algo, res.Agg)
		}
	}
}

func TestWallClockPopulated(t *testing.T) {
	g := gen.Complete(20)
	res, err := Run(AlgoDiTric, g, Config{P: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Wall <= 0 {
		t.Fatal("wall time not recorded")
	}
}

// TestPrepareRejectsRowSpaceOverflow: a PE's rows are 4-byte indices, so a
// 1D part or a 2D band of more than graph.MaxRows vertices is a set-up
// error, reported before anything is sized by n; splitting the same graph
// over enough PEs is accepted.
func TestPrepareRejectsRowSpaceOverflow(t *testing.T) {
	for _, c := range []struct {
		algo Algorithm
		n    uint64
		p    int
		ok   bool
	}{
		{AlgoCetric, 1 << 33, 1, false},
		{AlgoDiTric, 1<<32 + 1, 2, false}, // parts of 2³¹+1 and 2³¹
		{AlgoDiTric, 1<<32 - 2, 2, true},  // parts of exactly MaxRows
		{AlgoCetric, 1 << 33, 8, true},
		{AlgoTK2D, 1 << 34, 1, false},
		{AlgoTK2D, 1 << 33, 16, false}, // 4×4 grid: bands of 2³¹
		{AlgoTK2D, 1 << 34, 256, true},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := prepare(c.algo, c.n, -1, Config{P: c.p})
		runtime.ReadMemStats(&after)
		if (err == nil) != c.ok {
			t.Errorf("%s n=%d p=%d: err = %v, want ok=%v", c.algo, c.n, c.p, err, c.ok)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s n=%d p=%d: prepare allocated %d bytes", c.algo, c.n, c.p, grew)
		}
	}
}

// TestEdgeInputsEveryEntryPoint: the empty graph at p ∈ {1, 3} and a
// triangle on more PEs than vertices (most ranges empty) count exactly
// through every entry point — Run with each algorithm, RunRank with each,
// RunStream with each streaming algorithm and RunApproxCetric — with no
// panic and, under the deadlines, no hang. A stream edge with an endpoint
// ≥ n, in the initial source or in the inserts, fails RunStream with an
// error naming the vertex, with no panic and no leaked goroutine.
func TestEdgeInputsEveryEntryPoint(t *testing.T) {
	algos := []Algorithm{AlgoDiTric, AlgoCetric, AlgoTriC, AlgoTK2D}
	for _, c := range []struct {
		name string
		g    *graph.Graph
		p    int
		want uint64
	}{
		{"empty/p=1", graph.FromEdges(0, nil), 1, 0},
		{"empty/p=3", graph.FromEdges(0, nil), 3, 0},
		{"K3/p=7", gen.Complete(3), 7, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := Config{P: c.p, RunTimeout: 30 * time.Second, CommDeadline: 30 * time.Second}
			for _, algo := range algos {
				res, err := Run(algo, c.g, cfg)
				if err != nil || res.Count != c.want {
					t.Fatalf("Run %s: %v, err %v, want %d", algo, res, err, c.want)
				}
				counts, _, errs := tryRanks(t, algo, c.g, cfg, c.p)
				for r := range counts {
					if errs[r] != nil || counts[r] != c.want {
						t.Fatalf("RunRank %s rank %d: count %d, err %v, want %d", algo, r, counts[r], errs[r], c.want)
					}
				}
			}
			for _, algo := range []Algorithm{AlgoDiTric, AlgoCetric} {
				initial, inserts, _ := SplitStream(c.g.Edges(), 1)
				res, err := RunStream(algo, uint64(c.g.NumVertices()), initial, inserts, cfg)
				if err != nil || res.Count != c.want {
					t.Fatalf("RunStream %s: %v, err %v, want %d", algo, res, err, c.want)
				}
			}
			res, err := RunApproxCetric(c.g, cfg, AMQConfig{})
			if err != nil || res.Exact12+res.Type3Raw != c.want {
				t.Fatalf("RunApproxCetric: %+v, err %v, want exact %d", res, err, c.want)
			}
		})
	}
	k3, bad := gen.Complete(3).Edges(), []graph.Edge{{U: 1, V: 9}}
	for _, c := range []struct {
		where            string
		initial, inserts []graph.Edge
	}{
		{"initial", append(slices.Clone(k3), bad...), nil},
		{"inserts", k3, bad},
	} {
		for _, p := range []int{1, 4} {
			t.Run(fmt.Sprintf("stream-vertex-out-of-range/%s/p=%d", c.where, p), func(t *testing.T) {
				leakcheck.Check(t)
				cfg := Config{P: p, RunTimeout: 30 * time.Second, CommDeadline: 30 * time.Second}
				for _, algo := range []Algorithm{AlgoDiTric, AlgoCetric} {
					_, err := RunStream(algo, 3, SliceBatches(c.initial, 0), SliceBatches(c.inserts, 0), cfg)
					if err == nil || !strings.Contains(err.Error(), "vertex 9") {
						t.Fatalf("RunStream %s: err %v, want one naming vertex 9", algo, err)
					}
				}
			})
		}
	}
}

// FuzzRunConfig runs a fixture under a random Config — any algorithm, 1–10
// PEs, δ, 0–3 threads, the Indirect, Overlap, LCC, Collect and noSurrogate
// bits — through one of four entry points:
//
//   - Run: the input either fails set-up — exactly when it asks LCC of an
//     algorithm other than DITRIC/CETRIC or Collect of TriC — or
//     counts the fixture's triangles exactly, with one collected triangle per
//     triangle and Δ summing to three per triangle.
//   - RunStream over SplitStream(g.Edges(), …) in 1–8 batches: a set-up
//     error exactly for LCC, Collect or an algorithm other than
//     DITRIC/CETRIC, else the exact count.
//   - RunApproxCetric with a fuzzed BitsPerKey: a set-up error exactly for
//     a NaN, infinite or above-MaxBitsPerKey size, else
//     Exact12 ≤ T ≤ Exact12 + Type3Raw, because the filters have no false
//     negatives.
//   - RunRank on P goroutine ranks over one ChanNetwork: either every rank
//     returns the set-up error Run gives for the same config, or every rank
//     returns the fixture's count.
//
// RunTimeout, and for RunRank CommDeadline, turns a hang into a failure.
func FuzzRunConfig(f *testing.F) {
	const (
		bitIndirect = 1 << iota
		bitOverlap
		bitLCC
		bitCollect
		bitNoSurrogate
	)
	const (
		entryRun = iota
		entryStream
		entryApprox
		entryRank
		entries
	)
	algos := []Algorithm{AlgoDiTric, AlgoCetric, AlgoTriC, AlgoTK2D}
	// The first seed is rgg on 8 PEs with TriC and Collect: a counter that
	// ignores Collect returns the count with 0 of 6,310 triangles.
	f.Add(uint8(7), uint8(2), uint8(7), uint16(0), uint8(0), uint8(bitCollect), uint8(entryRun), 0.0)
	f.Add(uint8(6), uint8(0), uint8(3), uint16(1), uint8(2), uint8(bitIndirect|bitOverlap|bitLCC), uint8(entryRun), 0.0)
	f.Add(uint8(2), uint8(3), uint8(5), uint16(64), uint8(3), uint8(bitOverlap|bitCollect), uint8(entryRun), 0.0)
	f.Add(uint8(8), uint8(1), uint8(8), uint16(7), uint8(1), uint8(bitNoSurrogate|bitCollect), uint8(entryRun), 0.0)
	// A NaN filter size used to abort a PE body in growslice.
	f.Add(uint8(3), uint8(1), uint8(3), uint16(0), uint8(1), uint8(0), uint8(entryApprox), math.NaN())
	f.Add(uint8(5), uint8(0), uint8(4), uint16(3), uint8(2), uint8(bitIndirect|bitOverlap), uint8(entryStream), 0.0)
	f.Add(uint8(1), uint8(1), uint8(6), uint16(0), uint8(0), uint8(bitLCC), uint8(entryApprox), 3.5)
	// TriC's empty and static queue routed over the grid, with workers.
	f.Add(uint8(4), uint8(2), uint8(5), uint16(0), uint8(2), uint8(bitIndirect|bitOverlap), uint8(entryRank), 0.0)
	f.Fuzz(func(t *testing.T, fxSel, algoSel, pSel uint8, threshold uint16, threads, flags, entrySel uint8, bits float64) {
		fx := testgraph.All[int(fxSel)%len(testgraph.All)]
		algo := algos[int(algoSel)%len(algos)]
		cfg := Config{
			P:           int(pSel)%10 + 1,
			Threshold:   int(threshold),
			Threads:     int(threads) % 4,
			Indirect:    flags&bitIndirect != 0,
			Overlap:     flags&bitOverlap != 0,
			LCC:         flags&bitLCC != 0,
			Collect:     flags&bitCollect != 0,
			noSurrogate: flags&bitNoSurrogate != 0,
			RunTimeout:  30 * time.Second,
		}
		g := fx.Build()
		family := algo == AlgoDiTric || algo == AlgoCetric
		wantSetupErr := func(err error, invalid bool) bool {
			t.Helper()
			if invalid {
				var re *dist.RunError
				if err == nil || errors.As(err, &re) {
					t.Fatalf("%s %s %+v: err %v, want a set-up error", fx.Name, algo, cfg, err)
				}
				return true
			}
			if err != nil {
				t.Fatalf("%s %s %+v: %v", fx.Name, algo, cfg, err)
			}
			return false
		}
		switch int(entrySel) % entries {
		case entryStream:
			edges := g.Edges()
			initial, inserts, _ := SplitStream(edges, len(edges)/(int(threshold)%8+1)+1)
			sres, err := RunStream(algo, uint64(g.NumVertices()), initial, inserts, cfg)
			if wantSetupErr(err, cfg.LCC || cfg.Collect || !family) {
				return
			}
			if sres.Count != fx.Triangles {
				t.Fatalf("%s stream %s %+v: count %d, want %d", fx.Name, algo, cfg, sres.Count, fx.Triangles)
			}
		case entryApprox:
			acfg := AMQConfig{BitsPerKey: bits}
			res, err := RunApproxCetric(g, cfg, acfg)
			if wantSetupErr(err, math.IsNaN(bits) || math.IsInf(bits, 0) || bits > MaxBitsPerKey) {
				return
			}
			if res.Exact12 > fx.Triangles || res.Exact12+res.Type3Raw < fx.Triangles {
				t.Fatalf("%s approx %+v %+v: exact %d + raw type-3 %d does not bracket %d",
					fx.Name, cfg, acfg, res.Exact12, res.Type3Raw, fx.Triangles)
			}
		case entryRank:
			var setupErr error
			if invalid := (cfg.LCC && !family) || (cfg.Collect && algo == AlgoTriC); invalid {
				_, setupErr = Run(algo, g, cfg)
				wantSetupErr(setupErr, true)
			}
			cfg.CommDeadline = 30 * time.Second
			counts, _, errs := tryRanks(t, algo, g, cfg, cfg.P)
			for r, err := range errs {
				switch {
				case setupErr != nil && (err == nil || err.Error() != setupErr.Error()):
					t.Fatalf("%s rank %d %s %+v: err %v, want Run's set-up error %v", fx.Name, r, algo, cfg, err, setupErr)
				case setupErr == nil && err != nil:
					t.Fatalf("%s rank %d %s %+v: %v", fx.Name, r, algo, cfg, err)
				case setupErr == nil && counts[r] != fx.Triangles:
					t.Fatalf("%s rank %d %s %+v: count %d, want %d", fx.Name, r, algo, cfg, counts[r], fx.Triangles)
				}
			}
		default:
			res, err := Run(algo, g, cfg)
			if wantSetupErr(err, (cfg.LCC && !family) || (cfg.Collect && algo == AlgoTriC)) {
				return
			}
			if res.Count != fx.Triangles {
				t.Fatalf("%s %s %+v: count %d, want %d", fx.Name, algo, cfg, res.Count, fx.Triangles)
			}
			if cfg.Collect && uint64(len(res.Triangles)) != fx.Triangles {
				t.Fatalf("%s %s %+v: collected %d triangles, want %d", fx.Name, algo, cfg, len(res.Triangles), fx.Triangles)
			}
			if cfg.LCC {
				var sum uint64
				for _, d := range res.Deltas {
					sum += d
				}
				if sum != 3*fx.Triangles {
					t.Fatalf("%s %s %+v: Δ sums to %d, want %d", fx.Name, algo, cfg, sum, 3*fx.Triangles)
				}
			}
		}
	})
}
