package core

import (
	"fmt"
	"time"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/part"
	"repro/internal/transport"
)

// The run drivers. The input of every one-shot entry point (Run, RunRank,
// RunApproxCetric) is the adjacency array, read in place (plan.body). A 1D
// PE reads only its own rows, the slab [First, Last), which is the paper's
// input; its ghost degrees come over the wire. A TK2D PE is not held to
// that: it reads every row of its cyclic row band and the degree of every
// in-band neighbor straight from the shared CSR, and no frame carries
// either. No edge list is materialized and nothing is scattered
// driver-side, so PhaseScatter reads 0 on these paths. RunStream alone
// receives edges, and scatters them one batch at a time (plan.scatter).

// countBody is one 1D algorithm's counting phases on an already-built local
// view: everything after graph.BuildLocalCSR (one-shot runs) or the
// StreamBuilder seal (streaming runs).
type countBody func(pe *dist.PE, pl *plan, lg *graph.LocalGraph, out *peOutcome, sw *stopwatch) error

// algoSpecs resolves an algorithm name. TK2D has no 1D count body: its
// geometry (plan.g2) selects tk2dBody instead.
var algoSpecs = map[Algorithm]struct {
	count  countBody
	family bool // DITRIC/CETRIC proper: the algorithms that support LCC and streaming
}{
	AlgoDiTric: {count: ditricFrom, family: true},
	AlgoCetric: {count: cetricFrom, family: true},
	AlgoTriC:   {count: tricBody},
	AlgoTK2D:   {},
}

// plan is a validated, fully resolved run set-up. Every entry point — Run,
// RunRank, RunStream, RunApproxCetric — builds exactly one through prepare,
// so they accept and reject the same configurations and differ only in the
// body they execute and in where the endpoints come from.
type plan struct {
	cfg    Config          // defaults applied
	pt     *part.Partition // 1D vertex partition (nil for TK2D)
	g2     *part.Grid2D    // 2D block grid (TK2D only)
	count  countBody
	family bool
	dist   dist.Config
	amq    *AMQConfig // RunApproxCetric's filter config; nil on exact runs
}

// prepare validates cfg for algo on an n-vertex graph and resolves
// everything a run derives from it: the partition or block grid, the
// aggregation threshold δ, the indirect bit and the watchdog fields. m is
// the edge count δ defaults from; a stream does not know it up front and
// passes a negative m, which leaves an unset δ to each PE
// (streamThreshold). A PE's rows are 4-byte indices, so a 1D part or
// 2D band of more than graph.MaxRows vertices is an error here, before
// anything is sized by it; ghosts, which only the build discovers, are
// checked there.
func prepare(algo Algorithm, n uint64, m int, cfg Config) (*plan, error) {
	cfg = cfg.withDefaults()
	if cfg.P <= 0 {
		return nil, fmt.Errorf("core: config needs P > 0")
	}
	spec, ok := algoSpecs[algo]
	if !ok {
		return nil, fmt.Errorf("core: unknown algorithm %q", algo)
	}
	if cfg.LCC && !spec.family {
		return nil, fmt.Errorf("core: LCC is only supported by DITRIC/CETRIC, not %s", algo)
	}
	if cfg.Collect && !spec.family && algo != AlgoTK2D {
		return nil, fmt.Errorf("core: triangle collection is only supported by DITRIC/CETRIC/TK2D, not %s", algo)
	}
	pl := &plan{cfg: cfg, count: spec.count, family: spec.family}
	if algo == AlgoTK2D {
		// The 2D geometry has its own block build and partition math; it shares
		// everything else — validation, δ, the outcome merge, phase accounting.
		if cfg.Partition != nil {
			return nil, fmt.Errorf("core: %s uses the 2D block partition; a 1D Partition cannot be applied", algo)
		}
		g2, err := part.NewGrid2D(n, cfg.P)
		if err != nil {
			return nil, err
		}
		// Band 0 of the shorter grid side is the largest band of a block.
		if side := uint64(min(g2.R(), g2.C())); n > 0 && (n-1)/side+1 > graph.MaxRows {
			return nil, fmt.Errorf("core: %s on a %d×%d grid puts %d vertices in a band; a band holds at most %d",
				algo, g2.R(), g2.C(), (n-1)/side+1, graph.MaxRows)
		}
		pl.g2 = g2
	} else {
		pl.pt = cfg.Partition
		if pl.pt == nil {
			pl.pt = part.Uniform(n, cfg.P)
		} else if pl.pt.P() != cfg.P || pl.pt.N() != n {
			return nil, fmt.Errorf("core: partition shape (p=%d,n=%d) does not match run (p=%d,n=%d)",
				pl.pt.P(), pl.pt.N(), cfg.P, n)
		}
		for r := 0; r < cfg.P; r++ {
			if first, last := pl.pt.Range(r); last-first > graph.MaxRows {
				return nil, fmt.Errorf("core: PE %d owns %d vertices; a PE holds at most %d rows", r, last-first, graph.MaxRows)
			}
		}
	}
	threshold := cfg.Threshold
	if threshold <= 0 && m >= 0 {
		// δ ∈ O(|E_i|): memory per PE stays linear in the local input.
		threshold = DefaultThreshold(m, cfg.P)
	}
	pl.dist = dist.Config{
		// Indirect routes the 1D queue; TK2D's rounds keep direct delivery.
		P: cfg.P, Threshold: threshold, Indirect: cfg.Indirect && pl.g2 == nil, Network: cfg.Network,
		CommDeadline: cfg.CommDeadline, RunTimeout: cfg.RunTimeout,
	}
	return pl, nil
}

// enter readies a freshly attached PE for the plan's bodies — the one step
// goroutine PEs (run) and process PEs (RunRank) share. Every PE of a run
// installs the same codec table, so senders and receivers agree before the
// first record is in flight, and arms the same comm watchdog.
func (pl *plan) enter(pe *dist.PE) *peOutcome {
	pe.C.SetDeadline(pl.cfg.CommDeadline)
	for ch, c := range channelCodecs {
		if pl.cfg.wire != nil {
			c = pl.cfg.wire
		}
		pe.Q.SetCodec(ch, c)
	}
	return newPEOutcome()
}

// run executes body on the plan's P goroutine PEs and returns their
// outcomes and metrics, both indexed by rank. An outcome stays nil when its
// PE never started.
func (pl *plan) run(body func(pe *dist.PE, out *peOutcome) error) ([]*peOutcome, []comm.Metrics, error) {
	outcomes := make([]*peOutcome, pl.cfg.P)
	metrics, err := dist.Run(pl.dist, func(pe *dist.PE) error {
		outcomes[pe.Rank] = pl.enter(pe)
		return body(pe, outcomes[pe.Rank])
	})
	return outcomes, metrics, err
}

// scatter splits a streamed batch the way a distributed loader would: PE i
// receives exactly the edges incident to its vertex range. RunStream is the
// one entry point that receives edges; every other one hands its PEs g.
func (pl *plan) scatter(edges []graph.Edge) [][]graph.Edge {
	return graph.ScatterEdgesPar(pl.pt, edges, pl.cfg.Threads)
}

// body is the one-shot SPMD body: build this rank's view from its rows of
// g's CSR — the 1D slab [First, Last) or the 2D block — then count.
func (pl *plan) body(pe *dist.PE, g *graph.Graph, out *peOutcome) error {
	if pl.g2 != nil {
		return tk2dBody(pe, pl, g, out)
	}
	sw := newStopwatch(pe.C, out)
	sw.phase(PhaseBuild)
	lg := graph.BuildLocalCSR(pl.pt, pe.Rank, g, pl.cfg.Threads)
	return pl.count(pe, pl, lg, out, sw)
}

// Run executes a distributed triangle counting algorithm on g with cfg.P
// simulated PEs and returns the merged result.
func Run(algo Algorithm, g *graph.Graph, cfg Config) (*Result, error) {
	pl, err := prepare(algo, uint64(g.NumVertices()), g.NumEdges(), cfg)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	outcomes, metrics, err := pl.run(func(pe *dist.PE, out *peOutcome) error {
		return pl.body(pe, g, out)
	})
	if err != nil {
		return nil, err
	}
	res := mergeOutcomes(outcomes, metrics, g, pl.cfg)
	res.Wall = time.Since(start)
	return res, nil
}

// RunRank executes a single rank of a multi-process cluster on an existing
// transport endpoint (the other ranks run the same code in their own
// processes). Each process deterministically rebuilds the whole input, so
// no data distribution is needed. A 1D rank then reads only its own rows of
// it; a TK2D rank reads its row band and its in-band neighbors' degrees
// from the whole graph, so every process must hold all of g. Returns the
// global triangle count (agreed via an allreduce) and this rank's metrics. A
// failure inside the run — the body's own, a malformed row, a lost peer, the
// watchdog, a corrupt frame — comes back as the *dist.RunError dist.Run
// would report for it.
func RunRank(algo Algorithm, g *graph.Graph, cfg Config, ep transport.Endpoint) (uint64, comm.Metrics, error) {
	cfg.P = ep.Size()
	pl, err := prepare(algo, uint64(g.NumVertices()), g.NumEdges(), cfg)
	if err != nil {
		return 0, comm.Metrics{}, err
	}
	pe := dist.Attach(ep, pl.dist.Threshold, pl.dist.Indirect)
	var global uint64
	err = dist.Guard(pe, func() error {
		out := pl.enter(pe)
		if err := pl.body(pe, g, out); err != nil {
			return err
		}
		global = pe.C.AllreduceSum([]uint64{out.count})[0]
		return nil
	})
	return global, pe.C.M, err
}
