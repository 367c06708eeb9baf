package core

import (
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/gen"
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
	for _, algo := range []Algorithm{AlgoTriC, AlgoHavoq} {
		if _, err := Run(algo, g, Config{P: 2, LCC: true}); err == nil {
			t.Fatalf("%s should reject LCC", algo)
		}
	}
}

func TestAlgorithmsListStable(t *testing.T) {
	algos := Algorithms()
	if len(algos) != 4 {
		t.Fatalf("expected 4 algorithms, got %d", len(algos))
	}
	if algos[0] != AlgoDiTric || algos[3] != AlgoTriC {
		t.Fatalf("unexpected order: %v", algos)
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

// FuzzRunConfig runs a fixture under a random Config — any algorithm, 1–10
// PEs, δ, 0–3 threads, the Indirect, Overlap, LCC, Collect and noSurrogate
// bits and a hub threshold — through one of three entry points:
//
//   - Run: the input either fails set-up — exactly when it asks LCC of an
//     algorithm other than DITRIC/CETRIC or Collect of TriC/HavoqGT — or
//     counts the fixture's triangles exactly, with one collected triangle per
//     triangle and Δ summing to three per triangle.
//   - RunStream over SplitStream(g.Edges(), …) in 1–8 batches: a set-up
//     error exactly for LCC, Collect or an algorithm other than
//     DITRIC/CETRIC, else the exact count.
//   - RunApproxCetric with a fuzzed BitsPerKey and Truthful off: a set-up
//     error exactly for a NaN, infinite or above-MaxBitsPerKey size, else
//     Exact12 ≤ T ≤ Exact12 + Type3Raw, because the filters have no false
//     negatives.
//
// RunTimeout turns a hang into a failure.
func FuzzRunConfig(f *testing.F) {
	const (
		bitIndirect = 1 << iota
		bitOverlap
		bitLCC
		bitCollect
		bitNoSurrogate
		bitBlocked // RunApproxCetric's blocked filter
	)
	const (
		entryRun = iota
		entryStream
		entryApprox
		entries
	)
	algos := []Algorithm{AlgoDiTric, AlgoCetric, AlgoHavoq, AlgoTriC, AlgoTK2D}
	// The first seed is rgg on 8 PEs with HavoqGT and Collect: a counter
	// that ignores Collect returns the count with 0 of 6,310 triangles.
	f.Add(uint8(7), uint8(2), uint8(7), uint16(0), uint8(0), uint8(bitCollect), uint8(entryRun), int8(0), 0.0)
	f.Add(uint8(6), uint8(0), uint8(3), uint16(1), uint8(2), uint8(bitIndirect|bitOverlap|bitLCC), uint8(entryRun), int8(-1), 0.0)
	f.Add(uint8(2), uint8(4), uint8(5), uint16(64), uint8(3), uint8(bitOverlap|bitCollect), uint8(entryRun), int8(2), 0.0)
	f.Add(uint8(8), uint8(1), uint8(8), uint16(7), uint8(1), uint8(bitNoSurrogate|bitCollect), uint8(entryRun), int8(5), 0.0)
	// A NaN filter size used to abort a PE body in growslice.
	f.Add(uint8(3), uint8(1), uint8(3), uint16(0), uint8(1), uint8(0), uint8(entryApprox), int8(0), math.NaN())
	f.Add(uint8(5), uint8(0), uint8(4), uint16(3), uint8(2), uint8(bitIndirect|bitOverlap), uint8(entryStream), int8(0), 0.0)
	f.Add(uint8(1), uint8(1), uint8(6), uint16(0), uint8(0), uint8(bitLCC|bitBlocked), uint8(entryApprox), int8(1), 3.5)
	f.Fuzz(func(t *testing.T, fxSel, algoSel, pSel uint8, threshold uint16, threads, flags, entrySel uint8, hub int8, bits float64) {
		fx := testgraph.All[int(fxSel)%len(testgraph.All)]
		algo := algos[int(algoSel)%len(algos)]
		cfg := Config{
			P:            int(pSel)%10 + 1,
			Threshold:    int(threshold),
			Threads:      int(threads) % 4,
			Indirect:     flags&bitIndirect != 0,
			Overlap:      flags&bitOverlap != 0,
			LCC:          flags&bitLCC != 0,
			Collect:      flags&bitCollect != 0,
			noSurrogate:  flags&bitNoSurrogate != 0,
			HubThreshold: int(hub),
			RunTimeout:   30 * time.Second,
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
			acfg := AMQConfig{BitsPerKey: bits, Blocked: flags&bitBlocked != 0}
			res, err := RunApproxCetric(g, cfg, acfg)
			if wantSetupErr(err, math.IsNaN(bits) || math.IsInf(bits, 0) || bits > MaxBitsPerKey) {
				return
			}
			if res.Exact12 > fx.Triangles || res.Exact12+res.Type3Raw < fx.Triangles {
				t.Fatalf("%s approx %+v %+v: exact %d + raw type-3 %d does not bracket %d",
					fx.Name, cfg, acfg, res.Exact12, res.Type3Raw, fx.Triangles)
			}
		default:
			res, err := Run(algo, g, cfg)
			if wantSetupErr(err, (cfg.LCC && !family) || (cfg.Collect && (algo == AlgoHavoq || algo == AlgoTriC))) {
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
