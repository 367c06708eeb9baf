package costmodel

import (
	"math"
	"testing"

	"repro/internal/comm"
)

// sampleMetrics folds synthetic (frame bytes, latency ns) observations into
// the accumulator form comm meters during a run.
func sampleMetrics(samples [][2]float64) comm.Metrics {
	var m comm.Metrics
	for _, s := range samples {
		bytes, ns := s[0], s[1]
		m.LatSamples++
		m.LatSumNs += ns
		m.LatSumBytes += bytes
		m.LatSumNsB += ns * bytes
		m.LatSumBytes2 += bytes * bytes
	}
	return m
}

// TestCalibrateRecoversKnownLine feeds the fitter samples generated from an
// exact α+β line and checks it recovers both parameters. With no noise the
// closed-form least squares must land on the line to float precision.
func TestCalibrateRecoversKnownLine(t *testing.T) {
	const (
		alphaNs     = 20e3 // 20µs startup
		nsPerByte   = 0.8  // 10 Gbit/s ballpark
		sampleCount = 64
	)
	var samples [][2]float64
	for i := 0; i < sampleCount; i++ {
		bytes := float64(64 * (i + 1))
		samples = append(samples, [2]float64{bytes, alphaNs + nsPerByte*bytes})
	}
	p, ok := Calibrate(sampleMetrics(samples))
	if !ok {
		t.Fatal("fit rejected clean samples")
	}
	if p.Name != MeasuredName {
		t.Fatalf("profile name %q, want %q", p.Name, MeasuredName)
	}
	wantAlpha := alphaNs / 1e9
	wantBeta := nsPerByte * 8 / 1e9
	if math.Abs(p.Alpha-wantAlpha) > 1e-6*wantAlpha {
		t.Fatalf("α = %g, want %g", p.Alpha, wantAlpha)
	}
	if math.Abs(p.Beta-wantBeta) > 1e-6*wantBeta {
		t.Fatalf("β = %g, want %g", p.Beta, wantBeta)
	}
}

// TestCalibrateRejectsIllConditioned enumerates the degenerate sample sets
// the fitter must refuse: too few observations and no size spread (slope
// unidentifiable).
func TestCalibrateRejectsIllConditioned(t *testing.T) {
	var few [][2]float64
	for i := 0; i < MinCalibrationSamples-1; i++ {
		few = append(few, [2]float64{float64(64 * (i + 1)), 1000})
	}
	if _, ok := Calibrate(sampleMetrics(few)); ok {
		t.Fatal("accepted fewer than MinCalibrationSamples samples")
	}
	var flat [][2]float64
	for i := 0; i < 2*MinCalibrationSamples; i++ {
		flat = append(flat, [2]float64{512, 1000 + float64(i)})
	}
	if _, ok := Calibrate(sampleMetrics(flat)); ok {
		t.Fatal("accepted samples with zero size spread")
	}
}

// TestCalibrateFlatSlopeDegradesToPureLatency pins the fast-transport path:
// when latency does not grow with frame size (the slope comes out ≤ 0), the
// fit must not fail — engagement decisions downstream would then flip on
// scheduling noise — but collapse to α = mean frame latency over a floored
// β, the pure-latency model.
func TestCalibrateFlatSlopeDegradesToPureLatency(t *testing.T) {
	var falling [][2]float64
	var sum float64
	for i := 0; i < 2*MinCalibrationSamples; i++ {
		bytes := float64(64 * (i + 1))
		ns := 1e6 - 10*bytes
		falling = append(falling, [2]float64{bytes, ns})
		sum += ns
	}
	p, ok := Calibrate(sampleMetrics(falling))
	if !ok {
		t.Fatal("rejected a flat-slope sample set instead of degrading")
	}
	wantAlpha := sum / float64(len(falling)) / 1e9
	if math.Abs(p.Alpha-wantAlpha) > 1e-6*wantAlpha {
		t.Fatalf("pure-latency α = %g, want the mean latency %g", p.Alpha, wantAlpha)
	}
	if p.Beta != BetaFloor {
		t.Fatalf("pure-latency β = %g, want BetaFloor", p.Beta)
	}
}

// TestCalibrateClampsNegativeIntercept keeps α physical: noise can push the
// fitted intercept below zero, which must clamp to the 1ns floor instead of
// producing a negative startup cost.
func TestCalibrateClampsNegativeIntercept(t *testing.T) {
	var samples [][2]float64
	for i := 0; i < 2*MinCalibrationSamples; i++ {
		bytes := float64(64 * (i + 1))
		// Line through a negative intercept: y = -5000 + 2·x.
		samples = append(samples, [2]float64{bytes, -5000 + 2*bytes})
	}
	p, ok := Calibrate(sampleMetrics(samples))
	if !ok {
		t.Fatal("fit rejected samples with a recoverable slope")
	}
	if p.Alpha != 1e-9 {
		t.Fatalf("clamped α = %g, want the 1ns floor", p.Alpha)
	}
}

// TestMeasuredProfilePoolsRanks checks the cluster-wide fit weighs every
// rank's samples equally: splitting one sample set across ranks must yield
// the same parameters as fitting it whole.
func TestMeasuredProfilePoolsRanks(t *testing.T) {
	var all [][2]float64
	for i := 0; i < 4*MinCalibrationSamples; i++ {
		bytes := float64(128 * (i + 1))
		all = append(all, [2]float64{bytes, 30e3 + 1.5*bytes})
	}
	whole, ok := Calibrate(sampleMetrics(all))
	if !ok {
		t.Fatal("whole-set fit failed")
	}
	quarter := len(all) / 4
	var per []comm.Metrics
	for r := 0; r < 4; r++ {
		per = append(per, sampleMetrics(all[r*quarter:(r+1)*quarter]))
	}
	pooled, ok := MeasuredProfile(per)
	if !ok {
		t.Fatal("pooled fit failed")
	}
	if math.Abs(pooled.Alpha-whole.Alpha) > 1e-12 || math.Abs(pooled.Beta-whole.Beta) > 1e-15 {
		t.Fatalf("pooled fit (%g, %g) differs from whole-set fit (%g, %g)",
			pooled.Alpha, pooled.Beta, whole.Alpha, whole.Beta)
	}
}
