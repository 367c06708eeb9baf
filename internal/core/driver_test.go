package core

import (
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/part"
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
	if len(algos) != 6 {
		t.Fatalf("expected 6 algorithms, got %d", len(algos))
	}
	if algos[0] != AlgoDiTric || algos[5] != AlgoTriC {
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
	for _, algo := range Algorithms() {
		res, err := Run(algo, g, Config{P: 1})
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
