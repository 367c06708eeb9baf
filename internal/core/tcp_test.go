package core

import (
	"math"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"

	"repro/internal/comm"
	"repro/internal/costmodel"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/transport"
)

// TestAlgorithmsOverTCP runs the full algorithms over the real TCP wire path
// (loopback, one endpoint per PE) and checks counts and LCC against the
// sequential oracle — the end-to-end integration test for the
// multi-process-capable transport.
func TestAlgorithmsOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP integration")
	}
	g := gen.RMAT(gen.DefaultRMAT(8, 51))
	want := SeqCount(g)
	for _, algo := range paperVariants {
		net, err := transport.NewLoopbackTCPNetwork(4)
		if err != nil {
			t.Fatal(err)
		}
		res, err := algo.run(g, Config{P: 4, Network: net})
		net.Close()
		if err != nil {
			t.Fatalf("%s over TCP: %v", algo, err)
		}
		if res.Count != want {
			t.Fatalf("%s over TCP: count %d, want %d", algo, res.Count, want)
		}
	}
}

func TestLCCOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP integration")
	}
	g := gen.WebGraph(gen.WebConfig{N: 256, HostSize: 16, IntraP: 0.5, LongFactor: 2, Seed: 3})
	_, wantDeltas := SeqDeltas(g)
	net, err := transport.NewLoopbackTCPNetwork(3)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	res, err := vCetric2.run(g, Config{P: 3, Network: net, LCC: true})
	if err != nil {
		t.Fatal(err)
	}
	for v, want := range wantDeltas {
		if res.Deltas[v] != want {
			t.Fatalf("TCP LCC: Δ(%d) = %d, want %d", v, res.Deltas[v], want)
		}
	}
}

// TestMeasuredProfileAgreesWithProbe runs DITRIC end to end over loopback
// TCP, where every data frame is latency-sampled, and holds the α/β fitted
// from the runs' own frame latencies
// (costmodel.MeasuredProfile) to a direct probe of isolated sends on the same
// transport: α and β must each agree within 10×. A run fit whose β sits at
// BetaFloor is the pure-latency model — frame latency did not grow with
// size, so β was never identified — and only α is compared. Loopback timing
// on a busy host can degenerate either fit, so a disagreement must repeat on
// three fresh attempts to fail. Under the race detector the timings measure
// its instrumentation, not the transport, so the test skips there.
func TestMeasuredProfileAgreesWithProbe(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP integration")
	}
	if raceEnabled {
		t.Skip("frame timings under -race measure the detector")
	}
	g := gen.RMAT(gen.DefaultRMAT(13, 7))
	want := SeqCount(g)
	within := func(r float64) bool { return r >= 0.1 && r <= 10 }
	for attempt := 1; attempt <= 3; attempt++ {
		run, probe := measuredRunFit(t, g, want), probeIsolatedSends(t)
		t.Logf("attempt %d: run α=%.2fµs β=%.3fns/word, probe α=%.2fµs β=%.3fns/word (ratios %.2f, %.2f)",
			attempt, run.Alpha*1e6, run.Beta*1e9, probe.Alpha*1e6, probe.Beta*1e9,
			run.Alpha/probe.Alpha, run.Beta/probe.Beta)
		if within(run.Alpha/probe.Alpha) && (run.Beta == costmodel.BetaFloor || within(run.Beta/probe.Beta)) {
			return
		}
	}
	t.Fatal("run fit outside 10× of the probe on 3 attempts")
}

// raceEnabled reports a -race build (set in race_test.go).
var raceEnabled bool

// measuredRunFit fits the frame-latency samples of three DITRIC runs at
// p = 4 over fresh loopback TCP networks, pooled with
// costmodel.MeasuredProfile: one run meters only ~50 frames, few enough that
// scheduling noise can flip the fitted slope's sign. A preempted send only
// ever reads slower, and one stalled frame swamps the dozen samples of the
// rank that sent it, so only the faster half of the 12 rank-runs (by mean
// latency per byte) enters the pool.
func measuredRunFit(t *testing.T, g *graph.Graph, want uint64) costmodel.Profile {
	t.Helper()
	var per []comm.Metrics
	for i := 0; i < 3; i++ {
		net, err := transport.NewLoopbackTCPNetwork(4)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(AlgoDiTric, g, Config{P: 4, Network: net})
		net.Close()
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != want {
			t.Fatalf("measured run counted %d, want %d", res.Count, want)
		}
		for _, m := range res.PerPE {
			if m.LatSamples > 0 {
				per = append(per, m)
			}
		}
	}
	sort.Slice(per, func(a, b int) bool {
		return per[a].LatSumNs/per[a].LatSumBytes < per[b].LatSumNs/per[b].LatSumBytes
	})
	fit, ok := costmodel.MeasuredProfile(per[:(len(per)+1)/2])
	if !ok {
		t.Fatal("the runs produced too few latency samples to fit")
	}
	return fit
}

// probeIsolatedSends fits α/β over a fresh loopback TCP pair from frames of
// 32 sizes (8 to 8192 words, geometric), sent one at a time through the comm
// layer's own metered path — the code whose samples the run fit consumes —
// and fitted with the same closed-form least squares (costmodel.Calibrate).
// Each frame is timed in isolation (the sender waits until the receiver has
// it before the next send), so its latency is the write cost at its size,
// not the residue of earlier frames filling the socket buffer. A preempted
// send only ever reads slower, so each size enters the fit with the median
// of its 8 sends. A first pass only warms buffers and the TCP window.
func probeIsolatedSends(t *testing.T) costmodel.Profile {
	t.Helper()
	net, err := transport.NewLoopbackTCPNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	ep0, err := net.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	ep1, err := net.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	c0 := comm.New(ep0)
	sender := comm.NewQueue(c0, 1<<22, nil)
	recvQ := comm.NewQueue(comm.New(ep1), 1<<22, nil)
	var received atomic.Int64
	recvQ.Handle(0, func(int, []uint64) { received.Add(1) })
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for !stop.Load() {
			if !recvQ.Poll() {
				runtime.Gosched()
			}
		}
	}()
	const sizes, reps = 32, 8
	samples := make([][]comm.Metrics, sizes) // single-frame deltas per size
	var sent int64
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < reps; i++ {
			for k := range samples {
				words := int(8 * math.Pow(1024, float64(k)/(sizes-1)))
				before := c0.M
				sender.Send(0, 1, make([]uint64, words))
				sender.Flush()
				if d := c0.M.Sub(before); pass == 1 && d.LatSamples == 1 {
					samples[k] = append(samples[k], d)
				}
				sent++
				for received.Load() < sent {
					runtime.Gosched()
				}
			}
		}
	}
	stop.Store(true)
	<-done
	var m comm.Metrics
	for _, per := range samples {
		sort.Slice(per, func(a, b int) bool { return per[a].LatSumNs < per[b].LatSumNs })
		if len(per) > 0 {
			m.Add(per[len(per)/2])
		}
	}
	fit, ok := costmodel.Calibrate(m)
	if !ok {
		t.Fatal("probe samples could not support a fit")
	}
	return fit
}
