package core

import (
	"slices"

	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/part"
)

// ditricFrom is DITRIC (Algorithm 2 plus the engineering of §IV-A/B) on an
// already-built local view: the distributed EDGE ITERATOR with degree
// orientation, dynamic message aggregation, the surrogate dedup of
// Arifuzzaman et al. (each A(v) sent at most once per destination PE), and —
// when the queue routes through the grid — indirect delivery (DITRIC2). Who
// probes a wedge follows the heavy/light rule (wedgeRule): a row stamps A(v)
// for its partners, in place for the local ones, and ships it to the PEs of
// the remote ones, whose receivers derive the same partners from the record
// (recvNeigh). The rule reads the ghosts' out-degrees, which one exchange
// after the orientation brings in, where the barrier before the count stood.
// The chNeigh/chNeighEdge records ship ID-sorted A-lists, which the
// channel's delta-varint wire codec compresses as they are queued
// (codec.go); the body itself is codec-agnostic. One-shot runs build lg from
// the scattered edges (plan.body); the streaming driver builds it
// incrementally through graph.StreamBuilder before any counting starts.
func ditricFrom(pe *dist.PE, pl *plan, lg *graph.LocalGraph, out *peOutcome, sw *stopwatch) error {
	cfg := pl.cfg
	sw.phase(PhaseDegrees)
	reqs := exchangeGhostDegrees(pe, lg)
	sw.phase(PhaseOrient)
	ori := graph.OrientLocalOnlyPar(lg, cfg.Threads)
	rule := newWedgeRule(lg, ori.OutDegree)
	return ditricCount(pe, pl, cfg, lg, ori, rule, func() { reqs.exchangeOutDegrees(pe, lg, rule.dplus) }, out, sw)
}

// ditricCount is DITRIC's counting tail on any orientation ori of lg under
// rule (TriC passes the ID orientation and allLight), run under cfg's
// schedule. sync is the collective that returns on no PE before every PE
// has its handlers installed: DITRIC's out-degree exchange, TriC's barrier.
func ditricCount(pe *dist.PE, pl *plan, cfg Config, lg *graph.LocalGraph, ori *graph.LocalOriented,
	rule wedgeRule, sync func(), out *peOutcome, sw *stopwatch) error {
	sw.phase(PhasePreprocess) // residual: handler setup + sync
	state := newCountState(lg, cfg)
	state.rule = rule
	// The receiver structure is the already-built oriented graph, so received
	// records can be intersected from the first poll on.
	op := newOverlapPipeline(pe, sw, lg, cfg, state, func(ws *countState, r recvRecord) {
		ws.recvRecord(r, ori)
	})
	sync()

	// One emission stage over the local rows — local wedges counted in
	// place, cut neighborhoods shipped — then the drain.
	op.stage(PhaseLocal, lg.NLocal(), true, func(ws *countState, lo, hi int, sends chan<- hybridSend) {
		ditricLocalRows(pe, pl.pt, lg, ori, ws, lo, hi, sends, cfg.noSurrogate)
	})
	op.finish()
	finishBody(pe, sw, state, cfg, out)
	return nil
}

// ditricLocalRows processes local rows [lo,hi): each row v stamps A(v) for
// the partners the rule gives it — for a light v the y ∈ A(v) with
// d⁺(y) < heavyOutDegree, for a heavy v the y ∈ N(v) with 0 < d⁺(y) < d⁺(v)
// and the y ∈ A(v) with d⁺(y) = d⁺(v). A local partner probes A(v) in place
// through the stamped row-space kernel: A(v) is stamped into the emission
// mark once and its A(y) probed against it. A remote partner's PE gets A(v)
// through the shipper (funneled or direct), once per PE (sh.toPartner). The
// row stays stamped while its cut neighborhoods ship; a record the shipper's
// queue dispatches inline meanwhile lands on the state's receive mark, not
// this one.
func ditricLocalRows(pe *dist.PE, pt *part.Partition, lg *graph.LocalGraph, ori *graph.LocalOriented,
	state *countState, lo, hi int, sends chan<- hybridSend, noSurrogate bool) {
	first := lg.First
	nLoc := uint32(lg.NLocal())
	rule := &state.rule
	sh := getShipper(pe, sends)
	defer sh.put()
	m := lazyMark(&state.emitMark, ori)
	for r := lo; r < hi; r++ {
		rv := int32(r)
		av := ori.Out(rv)
		if len(av) < 2 {
			continue // a single out-neighbor cannot close a triangle
		}
		v := lg.GID(rv)
		avRows := ori.OutRows(rv)
		heavy := rule.heavyRow(len(av))
		// Local out-neighbours are a prefix of the row-space list; a light
		// row without one has nothing to probe here and is not stamped.
		stamped := heavy || avRows[0] < nLoc
		if stamped {
			m.Stamp(avRows)
		}
		lastRank := -1
		if heavy {
			for _, y := range lg.RowNeighborRows(rv) {
				if !probesHeavy(int(rule.dplus[y]), len(av), lg, y, av) {
					continue
				}
				if y < nLoc {
					state.countWedgeRows(m, rv, int32(y), ori)
					continue
				}
				u := lg.GID(int32(y))
				sh.toPartner(noSurrogate, pt.Rank(u), v, u, av, &lastRank)
			}
		} else {
			// av and avRows list the same ghosts in the same (ID) order, the
			// ghosts being avRows' suffix from g on, so g walks them with av.
			g, _ := slices.BinarySearch(avRows, nLoc)
			for _, u := range av {
				if y := u - first; y < uint64(nLoc) {
					if rule.dplus[y] < rule.heavy {
						state.countWedgeRows(m, rv, int32(y), ori)
					}
					continue
				}
				y := avRows[g]
				g++
				// A PE the row's record already goes to needs no d⁺ test.
				if j := pt.Rank(u); (noSurrogate || j != lastRank) && rule.dplus[y] < rule.heavy {
					sh.toPartner(noSurrogate, j, v, u, av, &lastRank)
				}
			}
		}
		if stamped {
			m.Unstamp()
		}
	}
}

// finishBody is the shared tail of the DITRIC, CETRIC and TriC bodies: the
// optional LCC ghost-Δ postprocess exchange, closing the stopwatch, and
// exporting the per-PE outcome.
func finishBody(pe *dist.PE, sw *stopwatch, state *countState, cfg Config, out *peOutcome) {
	if cfg.LCC {
		sw.phase(PhasePostprocess)
		state.flushGhostDeltas(pe)
		pe.Q.Drain()
	}
	sw.stop()
	// Export the deterministic receive-side work meter (the per-PE
	// global-phase load the activity-skew summary compares) through the
	// rank's Metrics.
	pe.C.M.RecvWorkWords += int64(state.recvWork)
	state.finish(out)
}
