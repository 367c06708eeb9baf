package core

import (
	"math"
	"testing"

	"repro/internal/gen"
)

func TestGlobalClusteringCoefficient(t *testing.T) {
	// K_n: transitivity 1.
	g := gen.Complete(8)
	if gcc := GlobalClusteringCoefficient(g, SeqCount(g)); math.Abs(gcc-1) > 1e-12 {
		t.Fatalf("K8 transitivity = %v, want 1", gcc)
	}
	// Star: no triangles.
	s := gen.Star(10)
	if gcc := GlobalClusteringCoefficient(s, 0); gcc != 0 {
		t.Fatalf("star transitivity = %v, want 0", gcc)
	}
	// Empty graph: guarded division.
	if gcc := GlobalClusteringCoefficient(gen.Path(1), 0); gcc != 0 {
		t.Fatal("degenerate graph should give 0")
	}
}

func TestAverageLCC(t *testing.T) {
	if AverageLCC(nil) != 0 {
		t.Fatal("empty vector should average to 0")
	}
	if got := AverageLCC([]float64{0.5, 1.0, 0}); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("average = %v, want 0.5", got)
	}
}

func TestLCCHistogram(t *testing.T) {
	h := LCCHistogram([]float64{0, 0.05, 0.5, 0.99, 1.0}, 10)
	if h[0] != 2 {
		t.Fatalf("bin 0 = %d, want 2", h[0])
	}
	if h[5] != 1 {
		t.Fatalf("bin 5 = %d, want 1", h[5])
	}
	if h[9] != 2 { // 0.99 and the clamped 1.0
		t.Fatalf("bin 9 = %d, want 2", h[9])
	}
	total := 0
	for _, c := range h {
		total += c
	}
	if total != 5 {
		t.Fatalf("histogram total %d, want 5", total)
	}
}

func TestLCCErrorMetrics(t *testing.T) {
	a := []float64{0.1, 0.5, 0.9}
	b := []float64{0.2, 0.5, 0.6}
	if got := LCCMaxAbsError(a, b); math.Abs(got-0.3) > 1e-12 {
		t.Fatalf("max abs err = %v, want 0.3", got)
	}
	if got := LCCMeanAbsError(a, b); math.Abs(got-(0.1+0+0.3)/3) > 1e-12 {
		t.Fatalf("mean abs err = %v", got)
	}
	if LCCMeanAbsError(nil, nil) != 0 {
		t.Fatal("empty vectors should give 0")
	}
}

func TestTransitivityConsistentAcrossAlgorithms(t *testing.T) {
	g := gen.RHG(gen.RHGConfig{N: 512, AvgDegree: 16, Gamma: 2.8, Seed: 5})
	want := GlobalClusteringCoefficient(g, SeqCount(g))
	res, err := vCetric2.run(g, Config{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := GlobalClusteringCoefficient(g, res.Count); got != want {
		t.Fatalf("transitivity %v != %v", got, want)
	}
	if want < 0.3 {
		t.Fatalf("RHG should be strongly clustered, transitivity %v", want)
	}
}
