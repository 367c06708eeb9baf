package core

import (
	"repro/internal/dist"
	"repro/internal/graph"
)

// cetricFrom is CETRIC (Algorithm 3) on an already-built local view: the
// contraction-based two-phase algorithm. The local phase runs EDGE ITERATOR
// on the expanded local graph (locals + ghosts) and finds every type-1 and
// type-2 triangle without any communication; the contraction step removes
// all non-cut edges; the global phase runs the DITRIC machinery on the
// remaining cut graph, which by Lemma 1 contains exactly the type-3
// triangles.
func cetricFrom(pe *dist.PE, pl *plan, lg *graph.LocalGraph, out *peOutcome, sw *stopwatch) error {
	cfg := pl.cfg
	sw.phase(PhaseDegrees)
	exchangeGhostDegrees(pe, lg, cfg.Threads)
	sw.phase(PhaseOrient)
	// Expansion: orient every row, including ghosts (their visible
	// neighborhoods are the rewired incoming cut edges).
	ori := graph.OrientLocalPar(lg, cfg.Threads)
	ori.BuildHubsPar(cfg.hubMinDegree(), cfg.Threads)
	sw.phase(PhasePreprocess) // residual: handler setup + the barrier
	state := newCountState(lg, cfg)
	state.useAMQ(pl.amq, ori)

	// Received records intersect with the *contracted* A-lists. cut is
	// assigned in the contraction phase, strictly before any record can be
	// dispatched: dispatch only happens inside this PE's own polls, and the
	// local stage issues none.
	var cut *graph.LocalOriented
	op := newOverlapPipeline(pe, sw, lg, cfg, state, out, func(ws *countState, r recvRecord) {
		ws.t3 += ws.recvRecord(r, cut)
	})
	pe.C.Barrier()

	// The local stage is communication-free and defers the receive side
	// entirely: other PEs may reach their send sweeps while this one counts,
	// but their cut neighborhoods cannot be intersected before the
	// contraction, so they wait codec-encoded in the transport.
	op.stage(PhaseLocal, lg.Rows(), false, func(ws *countState, lo, hi int, _ chan<- hybridSend) {
		cetricLocalPhase(lg, ori, ws, lo, hi)
	})

	sw.phase(PhaseContraction)
	cut = ori.ContractPar(cfg.Threads)
	cut.BuildHubsPar(cfg.hubMinDegree(), cfg.Threads)

	// Cut neighborhoods go out as (v, A(v)...) records with A(v) ID-sorted —
	// the shape the chNeigh delta-varint codec compresses best.
	op.stage(PhaseGlobal, lg.NLocal(), true, func(_ *countState, lo, hi int, sends chan<- hybridSend) {
		cetricGlobalRows(pe, pl, lg, cut, lo, hi, sends)
	})
	op.finish()
	finishBody(pe, sw, state, cfg, out)
	return nil
}

// cetricLocalPhase runs EDGE ITERATOR over rows [lo,hi) of the expanded
// local graph, counting and classifying type-1/type-2 triangles. It works
// entirely in row space: A-lists are iterated as row indices (so ghost
// endpoints cost no lookup), each A(v) is stamped into the emission mark
// once, and every wedge (v,u) closes by probing A(u) against it. Where both
// wedge endpoints are local the closing vertex decides the type, and rows
// below NLocal are exactly the locals — so the classification is the
// kernel's split shape at NLocal, two counters and no per-triangle call;
// only LCC/collection, which need every closing vertex anyway, enumerate.
func cetricLocalPhase(lg *graph.LocalGraph, ori *graph.LocalOriented, state *countState, lo, hi int) {
	nLoc := int32(lg.NLocal())
	fast := !state.lcc && !state.collect
	m := lazyMark(&state.emitMark, ori)
	for r := lo; r < hi; r++ {
		rv := int32(r)
		vLocal := rv < nLoc
		av := ori.OutRows(rv)
		if len(av) < 2 {
			continue // a single out-neighbor cannot close a triangle
		}
		m.Stamp(av)
		for _, ur := range av {
			ru := int32(ur)
			if !vLocal || ru >= nLoc {
				// At most one corner of a local-phase triangle is remote, and
				// here it is v or u: everything found is type 2.
				c, _ := state.countWedgeRows(m, rv, ru, ori)
				state.t2 += c
				continue
			}
			// Both wedge endpoints local: the closing vertex decides the type.
			set, probe := ori.Probe(m, ru)
			if fast {
				t1, t2 := graph.CountListSplit(set, probe, uint32(nLoc))
				state.count += t1 + t2
				state.t1 += t1
				state.t2 += t2
				continue
			}
			graph.ForEachCommonList(set, probe, func(w uint32) {
				state.addRows(rv, ru, int32(w))
				if int32(w) < nLoc {
					state.t1++
				} else {
					state.t2++
				}
			})
		}
		m.Unstamp()
	}
}

// cetricGlobalRows ships the contracted cut neighborhoods of local rows
// [lo,hi): (v, A(v)...) records with the surrogate dedup, per-edge
// (v, u, A(v)...) records under the no-surrogate ablation, or — on an
// approximate run — the filter A'(v), built once per row and sent with the
// same dedup. Shipments go through sends (funneled) or directly to the queue
// when sends is nil — the same contract as ditricLocalRows.
func cetricGlobalRows(pe *dist.PE, pl *plan, lg *graph.LocalGraph, cut *graph.LocalOriented,
	lo, hi int, sends chan<- hybridSend) {
	pt, noSurrogate := pl.pt, pl.cfg.noSurrogate
	var hdr [2]uint64 // record header scratch
	sh := getShipper(pe, sends)
	defer sh.put()
	for r := lo; r < hi; r++ {
		v := lg.GID(int32(r))
		av := cut.Out(int32(r))
		if len(av) < 2 {
			continue
		}
		lastRank := -1
		if pl.amq != nil {
			sh.rec = appendAMQ(sh.rec[:0], v, av, pl.amq)
			for _, u := range av {
				if j := pt.Rank(u); j != lastRank {
					sh.ship(chAMQ, j, sh.rec, nil)
					lastRank = j
				}
			}
			continue
		}
		for _, u := range av {
			if noSurrogate {
				hdr[0], hdr[1] = v, u
				sh.ship(chNeighEdge, pt.Rank(u), hdr[:2], av)
				continue
			}
			// Surrogate dedup: av is ID-sorted, ranks are contiguous.
			if j := pt.Rank(u); j != lastRank {
				hdr[0] = v
				sh.ship(chNeigh, j, hdr[:1], av)
				lastRank = j
			}
		}
	}
}
