package costmodel

import (
	"testing"
	"time"

	"repro/internal/comm"
)

func TestTimeLinearInTraffic(t *testing.T) {
	p := Profile{Name: "test", Alpha: 1e-3, Beta: 1e-6}
	m := comm.Metrics{SentFrames: 10, SentWords: 1000}
	want := time.Duration((1e-3*10 + 1e-6*1000) * float64(time.Second))
	if got := p.Time(m); got != want {
		t.Fatalf("Time = %v, want %v", got, want)
	}
}

func TestBottleneckPicksWorstPE(t *testing.T) {
	p := Profile{Alpha: 1, Beta: 0}
	per := []comm.Metrics{{SentFrames: 1}, {SentFrames: 5}, {SentFrames: 3}}
	if got := Bottleneck(per, p); got != 5*time.Second {
		t.Fatalf("Bottleneck = %v", got)
	}
}

func TestLatencyDominatedRegimeFavorsAggregation(t *testing.T) {
	// Same volume, different message counts: on the WAN profile the
	// many-small-messages PE must be far slower, on the supercomputer
	// profile they are close. This is the Fig. 2 logic in model form.
	aggregated := comm.Metrics{SentFrames: 10, SentWords: 100000}
	unbuffered := comm.Metrics{SentFrames: 10000, SentWords: 100000}
	wanRatio := float64(WAN.Time(unbuffered)) / float64(WAN.Time(aggregated))
	hpcRatio := float64(Supercomputer.Time(unbuffered)) / float64(Supercomputer.Time(aggregated))
	if wanRatio < 10 {
		t.Fatalf("WAN should punish unbuffered sends, ratio %.1f", wanRatio)
	}
	if hpcRatio >= wanRatio {
		t.Fatalf("supercomputer ratio %.1f should be below WAN ratio %.1f", hpcRatio, wanRatio)
	}
}

// TestTimeWire2DChargesBothDirections: the 2D lens adds receive frames and
// bytes on top of TimeWire's send side, so a PE that only receives still
// shows modeled cost, and a send-only PE matches the 1D wire lens exactly.
func TestTimeWire2DChargesBothDirections(t *testing.T) {
	p := Profile{Alpha: 1e-3, Beta: 8e-6} // β/8 = 1µs per byte
	sendOnly := comm.Metrics{SentFrames: 4, EncodedBytes: 1000}
	if got, want := p.TimeWire2D(sendOnly), p.TimeWire(sendOnly); got != want {
		t.Fatalf("send-only: TimeWire2D %v != TimeWire %v", got, want)
	}
	recvOnly := comm.Metrics{RecvFrames: 4, RecvEncodedBytes: 1000}
	if got := p.TimeWire2D(recvOnly); got != p.TimeWire(sendOnly) {
		t.Fatalf("recv-only: %v, want the symmetric %v", got, p.TimeWire(sendOnly))
	}
	both := comm.Metrics{SentFrames: 4, EncodedBytes: 1000, RecvFrames: 4, RecvEncodedBytes: 1000}
	if got := p.TimeWire2D(both); got != 2*p.TimeWire(sendOnly) {
		t.Fatalf("both directions: %v, want %v", got, 2*p.TimeWire(sendOnly))
	}
}

func TestBottleneckWire2DPicksWorstPE(t *testing.T) {
	p := Profile{Alpha: 1, Beta: 0}
	per := []comm.Metrics{
		{SentFrames: 1, RecvFrames: 1},
		{SentFrames: 2, RecvFrames: 4}, // worst: 6 blocking frames
		{SentFrames: 3},
	}
	if got := BottleneckWire2D(per, p); got != 6*time.Second {
		t.Fatalf("BottleneckWire2D = %v, want 6s", got)
	}
}

func TestProfilesDistinct(t *testing.T) {
	ps := Profiles()
	if len(ps) != 3 {
		t.Fatalf("want 3 profiles, got %d", len(ps))
	}
	if !(ps[0].Alpha < ps[1].Alpha && ps[1].Alpha < ps[2].Alpha) {
		t.Fatal("profiles should have increasing latency")
	}
}
