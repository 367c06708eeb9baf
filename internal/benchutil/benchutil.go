// Package benchutil is the scaffolding shared by the repo's benchmark CLIs
// (cmd/kernbench, cmd/wirebench, ...): the benchmark stand-in
// instance catalog, JSON report emission, a testing.Benchmark wrapper, and
// the steady-state queue allocation probe that backs the CI allocation
// gate. Keeping it in one place means the CLIs cannot drift apart on what
// "the RGG2D stand-in" or "steady state" mean.
package benchutil

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/comm"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/transport"
)

// Standin is one named benchmark instance. Build constructs a fresh copy;
// Skewed marks the power-law instances whose degree distribution
// concentrates work on hub-owning PEs (the load-balancing benchmarks'
// acceptance targets).
type Standin struct {
	Name   string
	Skewed bool
	Build  func() *graph.Graph
}

// Standins returns the benchmark stand-in catalog, in the order the bench
// CLIs report them: the RGG2D and RHG fixtures the wire benchmarks use,
// plus the RMAT skew case.
func Standins() []Standin {
	return []Standin{
		{"rgg2d-2^12", false, func() *graph.Graph { return gen.RGG2D(1<<12, 16, 42) }},
		{"rhg-2^12", true, func() *graph.Graph {
			return gen.RHG(gen.RHGConfig{N: 1 << 12, AvgDegree: 16, Gamma: 2.8, Seed: 42})
		}},
		{"rmat-2^13", true, func() *graph.Graph { return gen.RMAT(gen.DefaultRMAT(13, 7)) }},
	}
}

// ByName returns the named stand-in; unknown names panic (a bench CLI
// asking for a nonexistent instance is a programming error).
func ByName(name string) Standin {
	for _, s := range Standins() {
		if s.Name == name {
			return s
		}
	}
	panic(fmt.Sprintf("benchutil: unknown stand-in %q", name))
}

// WriteJSON emits v as indented JSON on stdout; failures abort the CLI.
// tool names the command for the error message.
func WriteJSON(tool string, v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
		os.Exit(1)
	}
}

// QueueSteadyStateAllocs measures allocs/op of the aggregated flush +
// receive path between two PEs after warmup (the same shape as
// comm.BenchmarkQueueFlushSteadyState): per-destination word buffers, byte
// frames, and decode arenas are all pooled, so the steady state must report
// zero.
func QueueSteadyStateAllocs() int64 {
	net := transport.NewChanNetwork(2)
	defer net.Close()
	ep0, _ := net.Endpoint(0)
	ep1, _ := net.Endpoint(1)
	sender := comm.NewQueue(comm.New(ep0), 1<<20, nil)
	sender.SetCodec(0, comm.DeltaVarint)
	recvQ := comm.NewQueue(comm.New(ep1), 1<<20, nil)
	recvQ.SetCodec(0, comm.DeltaVarint)
	var processed atomic.Int64
	recvQ.Handle(0, func(int, []uint64) { processed.Add(1) })

	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for !stop.Load() {
			if !recvQ.Poll() {
				runtime.Gosched()
			}
		}
		recvQ.Poll()
	}()

	payload := []uint64{100, 103, 104, 110, 117, 125, 126, 140}
	const burst = 64
	var sent int64
	round := func() {
		for k := 0; k < burst; k++ {
			sender.Send(0, 1, payload)
		}
		sender.Flush()
		sent += burst
		for processed.Load() < sent {
			runtime.Gosched()
		}
	}
	for i := 0; i < 16; i++ {
		round()
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			round()
		}
	})
	stop.Store(true)
	<-done
	return res.AllocsPerOp()
}
