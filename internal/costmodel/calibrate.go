package costmodel

import "repro/internal/comm"

// MeasuredName names the profiles Calibrate fits from a run's own
// frame-latency samples. Every data frame is sampled; the t_model(measured)
// lens of cmd/tricount fits the pooled samples after the run, and a failed
// fit leaves the lens out.
const MeasuredName = "measured"

// MinCalibrationSamples is the smallest number of timed data frames a fit
// will accept. Below it (or without any size spread across the samples) the
// least-squares system is ill-conditioned and Calibrate reports failure so
// callers can fall back to a static profile.
const MinCalibrationSamples = 32

// BetaFloor is the smallest per-word transfer cost Calibrate reports (in
// seconds per word). A fit that collapses to the pure-latency model still
// needs a positive β so downstream α/β ratios stay defined.
const BetaFloor = 1e-12

// Calibrate fits a live α+β profile to the frame-latency samples metered in
// m: each data frame send contributed one (wire bytes, ns) observation, and
// the closed-form least-squares line through them recovers the per-frame
// startup cost (α, the intercept) and the per-byte transfer cost (the
// slope, converted to Beta's per-8-byte-word convention). Returns ok=false
// only when the samples cannot identify anything: too few, or no size
// variance. A non-positive slope — the normal outcome on transports whose
// latency barely depends on frame size (in-process channels), where
// scheduling noise decides the slope's sign — degrades to the pure-latency
// model instead of failing: α is the mean frame latency and β sits at
// BetaFloor, which keeps the measured profile usable (and its α/β pricing
// stable) on fast transports. α from a genuine sloped fit is clamped
// non-negative, with a degenerate 0 floored at one nanosecond so the α/β
// ratio stays positive.
func Calibrate(m comm.Metrics) (Profile, bool) {
	n := float64(m.LatSamples)
	if m.LatSamples < MinCalibrationSamples {
		return Profile{}, false
	}
	// Least squares over y = α + slope·x with x in bytes, y in ns:
	//   slope = (nΣxy − ΣxΣy) / (nΣx² − (Σx)²),  α = (Σy − slope·Σx)/n.
	det := n*m.LatSumBytes2 - m.LatSumBytes*m.LatSumBytes
	if det <= 0 {
		return Profile{}, false // no size spread: slope unidentifiable
	}
	const nsPerSec = 1e9
	slope := (n*m.LatSumNsB - m.LatSumBytes*m.LatSumNs) / det
	if slope <= 0 {
		// Flat transport (or noise-dominated slope): the identifiable
		// quantity is the mean per-frame latency, so report it as α over a
		// floored β — the pure-latency model.
		alpha := m.LatSumNs / n / nsPerSec
		if alpha < 1e-9 {
			alpha = 1e-9
		}
		return Profile{Name: MeasuredName, Alpha: alpha, Beta: BetaFloor}, true
	}
	alpha := (m.LatSumNs - slope*m.LatSumBytes) / n
	if alpha < 0 {
		// Noise can push the intercept below zero; the startup cost of a
		// real transport cannot be negative, so clamp and keep the slope.
		alpha = 0
	}
	p := Profile{
		Name:  MeasuredName,
		Alpha: alpha / nsPerSec,
		Beta:  slope * 8 / nsPerSec, // per-byte slope → per-word Beta
	}
	if p.Alpha == 0 {
		p.Alpha = 1e-9 // floor: keep α/β positive
	}
	return p, true
}

// MeasuredProfile fits one α+β profile to a whole run by pooling every
// rank's samples (comm.Metrics.Add accumulates the running sums, so the
// pooled fit weighs each frame equally). ok=false under the same conditions
// as Calibrate.
func MeasuredProfile(per []comm.Metrics) (Profile, bool) {
	var all comm.Metrics
	for _, m := range per {
		all.Add(m)
	}
	return Calibrate(all)
}
