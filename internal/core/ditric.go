package core

import (
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/part"
)

// ditricFrom is DITRIC (Algorithm 2 plus the engineering of §IV-A/B) on an
// already-built local view: the distributed EDGE ITERATOR with degree
// orientation, dynamic message aggregation, the surrogate dedup of
// Arifuzzaman et al. (each A(v) sent at most once per destination PE), and —
// when the queue routes through the grid — indirect delivery (DITRIC2). The
// chNeigh/chNeighEdge records ship ID-sorted A-lists, which the channel's
// delta-varint wire codec compresses as they are queued (codec.go); the body
// itself is codec-agnostic. One-shot runs build lg from the scattered edges
// (plan.body); the streaming driver builds it incrementally through
// graph.StreamBuilder before any counting starts.
func ditricFrom(pe *dist.PE, pl *plan, lg *graph.LocalGraph, out *peOutcome, sw *stopwatch) error {
	cfg := pl.cfg
	sw.phase(PhaseDegrees)
	exchangeGhostDegrees(pe, lg, cfg.Threads)
	sw.phase(PhaseOrient)
	ori := graph.OrientLocalOnlyPar(lg, cfg.Threads)
	return ditricCount(pe, pl, cfg, lg, ori, out, sw)
}

// ditricCount is DITRIC's counting tail on any orientation ori of lg (TriC
// passes the ID orientation), run under cfg's schedule.
func ditricCount(pe *dist.PE, pl *plan, cfg Config, lg *graph.LocalGraph, ori *graph.LocalOriented,
	out *peOutcome, sw *stopwatch) error {
	sw.phase(PhasePreprocess) // residual: handler setup + the barrier
	state := newCountState(lg, cfg)
	// The receiver structure is the already-built oriented graph, so received
	// records can be intersected from the first poll on.
	op := newOverlapPipeline(pe, sw, lg, cfg, state, func(ws *countState, r recvRecord) {
		ws.recvRecord(r, ori)
	})
	pe.C.Barrier() // everyone finished preprocessing; handlers are live

	// One emission stage over the local rows — local-local wedges counted in
	// place, cut neighborhoods shipped — then the drain.
	op.stage(PhaseLocal, lg.NLocal(), true, func(ws *countState, lo, hi int, sends chan<- hybridSend) {
		ditricLocalRows(pe, pl.pt, lg, ori, ws, lo, hi, sends, cfg.noSurrogate)
	})
	op.finish()
	finishBody(pe, sw, state, cfg, out)
	return nil
}

// ditricLocalRows processes local rows [lo,hi): local-local wedges are
// counted in place through the stamped row-space kernel — A(v) is stamped
// into the emission mark once and every local partner's A(u) probed against
// it — and remote shipments go through the shipper (funneled or direct).
// The row stays stamped while its cut neighborhoods ship; a record the
// shipper's queue dispatches inline meanwhile lands on the state's receive
// mark, not this one.
func ditricLocalRows(pe *dist.PE, pt *part.Partition, lg *graph.LocalGraph, ori *graph.LocalOriented,
	state *countState, lo, hi int, sends chan<- hybridSend, noSurrogate bool) {
	first := lg.First
	nLoc := uint32(lg.NLocal())
	var hdr [2]uint64 // record header scratch, reused across shipments
	sh := getShipper(pe, sends)
	defer sh.put()
	m := lazyMark(&state.emitMark, ori)
	for r := lo; r < hi; r++ {
		rv := int32(r)
		v := lg.GID(rv)
		av := ori.Out(rv)
		if len(av) < 2 {
			continue // a single out-neighbor cannot close a triangle
		}
		// Local partners are a prefix of the row-space list; without one
		// there is nothing to probe and the row is not stamped.
		avRows := ori.OutRows(rv)
		stamped := avRows[0] < nLoc
		if stamped {
			m.Stamp(avRows)
		}
		lastRank := -1
		for _, u := range av {
			if lg.IsLocal(u) {
				state.countWedgeRows(m, rv, int32(u-first), ori)
				continue
			}
			if noSurrogate {
				// Ablation: one per-edge record per cut edge (Algorithm 2
				// without Arifuzzaman's dedup).
				hdr[0], hdr[1] = v, u
				sh.ship(chNeighEdge, pt.Rank(u), hdr[:2], av)
				continue
			}
			// Surrogate dedup: av is ID-sorted and ranks own contiguous
			// ranges, so equal destinations are adjacent.
			if j := pt.Rank(u); j != lastRank {
				hdr[0] = v
				sh.ship(chNeigh, j, hdr[:1], av)
				lastRank = j
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
