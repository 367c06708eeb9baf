package core

import (
	"slices"

	"repro/internal/dist"
	"repro/internal/graph"
)

// havoqBody reimplements the HavoqGT-style vertex-centric counter (Pearce et
// al.) from its published description: on the degree-oriented graph, every
// PE generates all open wedges (u,v,w) of its local vertices — all pairs of
// outgoing neighbors — and sends a "visitor" to the owner of the ≺-smaller
// endpoint, which checks for the closing edge. Message aggregation uses the
// same buffered queue as our algorithms (standing in for HavoqGT's
// node-level rerouting, which is topology dependent).
//
// Its communication volume is proportional to the number of *remote wedges*
// (two words per visitor), not to the cut neighborhoods — the structural
// reason it loses against DITRIC/CETRIC on wedge-rich graphs. HavoqGT's
// neighborhood partitioning of extreme hubs is not reproduced.
func havoqBody(pe *dist.PE, pl *plan, lg *graph.LocalGraph, out *peOutcome, sw *stopwatch) error {
	pt, cfg := pl.pt, pl.cfg
	sw.phase(PhaseDegrees)
	exchangeGhostDegrees(pe, lg, cfg.Threads)
	sw.phase(PhaseOrient)
	ori := graph.OrientLocalOnlyPar(lg, cfg.Threads)
	sw.phase(PhasePreprocess) // residual: handler setup + the barrier
	state := newCountState(lg, cfg)

	pe.Q.Handle(chWedge, wedgeHandler(state, ori))
	pe.C.Barrier()

	sw.phase(PhaseLocal)
	// Wedge generation with per-destination mini-batches (visitors are two
	// words; batching a few of them per record keeps envelope overhead sane,
	// like HavoqGT's visitor queues do).
	const batchPairs = 64
	batches := make([][]uint64, pe.P)
	flush := func(dst int) {
		if len(batches[dst]) > 0 {
			pe.Q.Send(chWedge, dst, batches[dst])
			batches[dst] = batches[dst][:0]
		}
	}
	for r := 0; r < lg.NLocal(); r++ {
		av := ori.Out(int32(r))
		for i, u := range av {
			du := lg.Degree(lg.Row(u))
			for _, w := range av[i+1:] {
				a, b := u, w
				if !graph.Less(du, u, lg.Degree(lg.Row(w)), w) {
					a, b = w, u
				}
				if lg.IsLocal(a) {
					if closesWedge(lg, ori, a, b) {
						state.count++
					}
					continue
				}
				dst := pt.Rank(a)
				batches[dst] = append(batches[dst], a, b)
				if len(batches[dst]) >= 2*batchPairs {
					flush(dst)
				}
			}
		}
	}
	for dst := range batches {
		flush(dst)
	}

	sw.phase(PhaseGlobal)
	pe.Q.Drain()
	sw.stop()
	state.finish(out)
	return nil
}

// closesWedge reports whether the oriented edge (a, b) exists, for local a.
func closesWedge(lg *graph.LocalGraph, ori *graph.LocalOriented, a, b graph.Vertex) bool {
	_, ok := slices.BinarySearch(ori.Out(int32(a-lg.First)), b)
	return ok
}

// wedgeHandler answers received wedge visitors [a, b, a, b, ...]: each pair
// whose closing edge (a, b) exists is a triangle. Every a must be a local of
// the receiver (checkLocalPairs).
func wedgeHandler(state *countState, ori *graph.LocalOriented) func(src int, words []uint64) {
	return func(src int, words []uint64) {
		checkLocalPairs(state.lg, src, words, "wedge")
		for i := 0; i < len(words); i += 2 {
			if closesWedge(state.lg, ori, words[i], words[i+1]) {
				state.count++
			}
		}
	}
}
