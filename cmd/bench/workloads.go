package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/transport"
)

// quickShift is how far -quick shrinks every input: 2^5 times fewer vertices.
const quickShift = 5

// workload is one fixed input + run configuration. Nothing here is a flag:
// a row of the benchmark only repeats if p, threads and algorithm hold still.
type workload struct {
	name string
	why  string // one line, copied into BENCHMARK.json
	// build generates the input from the benchmark seed with 2^shift times
	// fewer vertices (shift is 0 except under -quick).
	build func(shift uint, seed uint64) *graph.Graph
	algo  core.Algorithm
	cfg   core.Config
	tcp   bool // loopback TCP instead of the in-process channel network
	// stream runs core.RunStream: a seeded shuffle of the edges arrives as
	// an initial m/8 batch and seven m/8 insert batches.
	stream bool
	// exact: the comm counts must repeat exactly from rep to rep. False only
	// where eager flushes make frame boundaries depend on timing.
	exact bool
}

func rmatGraph(scale uint) func(uint, uint64) *graph.Graph {
	return func(shift uint, seed uint64) *graph.Graph {
		return gen.RMAT(gen.DefaultRMAT(int(scale-shift), seed))
	}
}

var workloads = []workload{
	{
		name: "rgg2d_cetric",
		why:  "high locality, almost nothing on the wire: wall is graph scatter/build/orient/contract plus short-list intersections; bypasses comm and transport",
		build: func(shift uint, seed uint64) *graph.Graph {
			return gen.RGG2D(1<<(17-shift), 16, seed)
		},
		algo: core.AlgoCetric, cfg: core.Config{P: 4, Threads: 1}, exact: true,
	},
	{
		name:  "rmat_ditric",
		why:   "skewed degrees and a large cut: hub/gallop/bitmap kernels on long lists together with the aggregating queue and delta-varint codec",
		build: rmatGraph(16),
		algo:  core.AlgoDiTric, cfg: core.Config{P: 4, Threads: 1}, exact: true,
	},
	{
		name: "gnm_ditric_tcp",
		why:  "no locality and almost no triangles over loopback TCP: wall is ghost discovery, degree exchange, queue flush, codec, CRC framing and socket I/O; bypasses kernel gains",
		build: func(shift uint, seed uint64) *graph.Graph {
			n := 1 << (15 - shift)
			return gen.GNM(n, 16*n, seed)
		},
		algo: core.AlgoDiTric, cfg: core.Config{P: 4, Threads: 1}, tcp: true, exact: true,
	},
	{
		name:  "rmat_tk2d",
		why:   "same graph as rmat_ditric through the 2D backend: Group broadcast rounds and BuildBlock2D instead of the queue and 1D BuildLocal; a queue-side gain must not move it",
		build: rmatGraph(16),
		algo:  core.AlgoTK2D, cfg: core.Config{P: 4, Threads: 1}, exact: true,
	},
	{
		name: "rhg_cetric_overlap",
		why:  "the only row on the hybrid worker pool, steal deque and eager-flush schedule (Overlap, threads=2); skewed with locality, the paper's CETRIC showcase",
		build: func(shift uint, seed uint64) *graph.Graph {
			return gen.RHG(gen.RHGConfig{N: 1 << (17 - shift), AvgDegree: 32, Gamma: 2.8, Seed: seed})
		},
		algo: core.AlgoCetric, cfg: core.Config{P: 2, Threads: 2, Overlap: true},
	},
	{
		name:  "rmat_stream",
		why:   "graph build layer as writes beside reads: StreamBuilder ingest, per-batch delta count and commit instead of one-shot BuildLocal; pins the streaming-vs-one-shot anomaly to a row",
		build: rmatGraph(14),
		algo:  core.AlgoCetric, cfg: core.Config{P: 4, Threads: 1}, stream: true, exact: true,
	},
}

func workloadByName(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// input is what set-up hands to the timed reps.
type input struct {
	g     *graph.Graph
	edges []graph.Edge // g.Edges(); shuffled by the seed for stream workloads
	want  uint64       // core.SeqCount(g)
}

// generate builds the workload's input from the seed: graph, edge list and
// the sequential reference count every rep is checked against.
func (w *workload) generate(shift uint, seed uint64) *input {
	g := w.build(shift, seed)
	edges := g.Edges()
	if w.stream {
		rng := gen.NewRNG(seed)
		for i := len(edges) - 1; i > 0; i-- {
			j := rng.Uint64n(uint64(i + 1))
			edges[i], edges[j] = edges[j], edges[i]
		}
	}
	return &input{g: g, edges: edges, want: core.SeqCount(g)}
}

// batchSize is the stream batch length: ceil(m/8), so the edge list splits
// into one initial batch and seven insert batches.
func batchSize(m int) int { return max(1, (m+7)/8) }

// repResult is one exact count call.
type repResult struct {
	wall   time.Duration
	res    *core.Result
	faults int64 // transport faults absorbed or surfaced (TCP workloads)
}

// rep runs one exact count. The network is built and the heap collected
// before the clock starts; the clock covers core.Run / core.RunStream only.
func (w *workload) rep(in *input, tr *tracer) (repResult, error) {
	cfg := w.cfg
	var eps []transport.Endpoint
	if w.tcp {
		nw, err := transport.NewLoopbackTCPNetwork(cfg.P)
		if err != nil {
			return repResult{}, fmt.Errorf("loopback network: %w", err)
		}
		// dist.Run closes the network when the run ends; this covers the
		// paths on which core.Run fails before it gets there.
		defer nw.Close()
		cfg.Network = nw
		for r := 0; r < cfg.P; r++ {
			ep, err := nw.Endpoint(r)
			if err != nil {
				return repResult{}, err
			}
			eps = append(eps, ep)
		}
	}
	runtime.GC()

	var out repResult
	var err error
	if w.stream {
		b := batchSize(len(in.edges))
		id := tr.begin("core.RunStream")
		t0 := time.Now()
		var sr *core.StreamResult
		sr, err = core.RunStream(w.algo, uint64(in.g.NumVertices()),
			core.SliceBatches(in.edges[:min(b, len(in.edges))], 0),
			core.SliceBatches(in.edges[min(b, len(in.edges)):], b), cfg)
		out.wall = time.Since(t0)
		tr.end(id)
		if err == nil {
			out.res = sr.Res
		}
	} else {
		id := tr.begin("core.Run")
		t0 := time.Now()
		out.res, err = core.Run(w.algo, in.g, cfg)
		out.wall = time.Since(t0)
		tr.end(id)
	}
	if err != nil {
		return repResult{}, err
	}
	out.faults = totalFaults(eps)
	return out, nil
}

// totalFaults sums every fault counter of the endpoints that report them.
func totalFaults(eps []transport.Endpoint) int64 {
	var n int64
	for _, ep := range eps {
		if fr, ok := ep.(transport.FaultReporter); ok {
			f := fr.Faults()
			n += f.CorruptFrames + f.BadHandshakes + f.WriteTimeouts + f.Reconnects + f.PeersDown + f.HeartbeatLoss
		}
	}
	return n
}
