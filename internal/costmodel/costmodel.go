// Package costmodel evaluates the paper's α+βℓ communication model over
// measured per-PE traffic. The paper's machine (SuperMUC-NG) hides most
// communication behind a 100 Gbit/s OmniPath fabric; re-evaluating the same
// traffic under cloud- or WAN-like parameters shows the regimes where the
// contraction (CETRIC) and indirection (the "2" variants) pay off — the
// paper's own prediction for slower interconnects.
package costmodel

import (
	"time"

	"repro/internal/comm"
)

// Profile is a network parameterization: Alpha is the per-message startup
// time, Beta the per-machine-word transfer time (both in seconds).
type Profile struct {
	Name  string
	Alpha float64
	Beta  float64
}

// Predefined profiles. Beta is derived from 8-byte words on the respective
// link bandwidth.
var (
	// Supercomputer: ~1µs MPI latency, 100 Gbit/s.
	Supercomputer = Profile{Name: "supercomputer", Alpha: 1e-6, Beta: 8 * 8 / 100e9}
	// Cloud: ~50µs kernel TCP latency, 10 Gbit/s.
	Cloud = Profile{Name: "cloud", Alpha: 50e-6, Beta: 8 * 8 / 10e9}
	// WAN: ~2ms RTT-ish latency, 1 Gbit/s.
	WAN = Profile{Name: "wan", Alpha: 2e-3, Beta: 8 * 8 / 1e9}
)

// Profiles lists the built-in profiles.
func Profiles() []Profile { return []Profile{Supercomputer, Cloud, WAN} }

// Time returns the modeled communication time of one PE's traffic:
// α·messages + β·words. Words are the pre-encoding volume, so this is the
// paper's original lens, independent of the wire codec in use.
func (p Profile) Time(m comm.Metrics) time.Duration {
	s := p.Alpha*float64(m.SentFrames) + p.Beta*float64(m.SentWords)
	return time.Duration(s * float64(time.Second))
}

// TimeWire returns the modeled communication time of the traffic that
// actually crossed the wire: α·messages + (β/8)·encoded bytes. β is
// per-word (8 bytes), so β/8 is the matching per-byte transfer time. The
// gap between Time and TimeWire is the α+β value of the codec layer's
// compression.
func (p Profile) TimeWire(m comm.Metrics) time.Duration {
	s := p.Alpha*float64(m.SentFrames) + p.Beta/8*float64(m.EncodedBytes)
	return time.Duration(s * float64(time.Second))
}

// Bottleneck returns the maximum modeled communication time over all PEs —
// the single-ported model's completion time proxy.
func Bottleneck(per []comm.Metrics, p Profile) time.Duration {
	var worst time.Duration
	for _, m := range per {
		if t := p.Time(m); t > worst {
			worst = t
		}
	}
	return worst
}

// BottleneckWire is Bottleneck under TimeWire (encoded bytes on the wire).
func BottleneckWire(per []comm.Metrics, p Profile) time.Duration {
	var worst time.Duration
	for _, m := range per {
		if t := p.TimeWire(m); t > worst {
			worst = t
		}
	}
	return worst
}

// TimeWire2D is the wire-byte lens for the 2D collective exchange. The 1D
// queue is asynchronous — receives overlap with compute, so TimeWire
// charges only the send side. A PE of the block-collective schedule instead
// blocks on every broadcast it participates in: each counting round's A-
// and B-blocks must be fully received before its wedges can close, so both
// directions sit on the critical path. The modeled time is therefore
// α·(sent + received frames) + (β/8)·(sent + received encoded bytes),
// using the same α+β parameters as the 1D lenses so the two geometries are
// directly comparable.
func (p Profile) TimeWire2D(m comm.Metrics) time.Duration {
	s := p.Alpha*float64(m.SentFrames+m.RecvFrames) +
		p.Beta/8*float64(m.EncodedBytes+m.RecvEncodedBytes)
	return time.Duration(s * float64(time.Second))
}

// BottleneckWire2D is the completion-time proxy of the collective exchange:
// the maximum TimeWire2D over PEs. Comparing it against BottleneckWire of a
// 1D run on the same graph and profile locates the crossover p beyond
// which O(√p)-collective volume beats cut-neighborhood shipping.
func BottleneckWire2D(per []comm.Metrics, p Profile) time.Duration {
	var worst time.Duration
	for _, m := range per {
		if t := p.TimeWire2D(m); t > worst {
			worst = t
		}
	}
	return worst
}
