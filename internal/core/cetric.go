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
// triangles. Who probes a cut wedge follows the heavy/light rule
// (wedgeRule) on the cut graph: d⁺ is a row's cut out-degree, known once
// the expansion is oriented, and the ghosts' come in through one exchange
// where the barrier before the count stood.
func cetricFrom(pe *dist.PE, pl *plan, lg *graph.LocalGraph, out *peOutcome, sw *stopwatch) error {
	cfg := pl.cfg
	sw.phase(PhaseDegrees)
	reqs := exchangeGhostDegrees(pe, lg)
	sw.phase(PhaseOrient)
	// Expansion: orient every row, including ghosts (their visible
	// neighborhoods are the rewired incoming cut edges).
	ori := graph.OrientLocalPar(lg, cfg.Threads)
	rule := newWedgeRule(lg, ori.CutOutDegree)
	sw.phase(PhasePreprocess) // residual: handler setup + the out-degree exchange
	state := newCountState(lg, cfg)
	state.rule = rule
	state.useAMQ(pl.amq, ori)

	// Received records intersect with the *contracted* A-lists. cut is
	// assigned in the contraction phase, strictly before any record can be
	// dispatched: dispatch only happens inside this PE's own polls, and the
	// local stage issues none.
	var cut *graph.LocalOriented
	op := newOverlapPipeline(pe, sw, lg, cfg, state, func(ws *countState, r recvRecord) {
		ws.t3 += ws.recvRecord(r, cut)
	})
	reqs.exchangeOutDegrees(pe, lg, rule.dplus)

	// The local stage is communication-free and defers the receive side
	// entirely: other PEs may reach their send sweeps while this one counts,
	// but their cut neighborhoods cannot be intersected before the
	// contraction, so they wait codec-encoded in the transport.
	op.stage(PhaseLocal, lg.Rows(), false, func(ws *countState, lo, hi int, _ chan<- hybridSend) {
		cetricLocalPhase(lg, ori, ws, lo, hi)
	})

	sw.phase(PhaseContraction)
	cut = ori.ContractPar(cfg.Threads)

	// Cut neighborhoods go out as (v, A(v)...) records with A(v) ID-sorted —
	// the shape the chNeigh delta-varint codec compresses best.
	op.stage(PhaseGlobal, lg.NLocal(), true, func(_ *countState, lo, hi int, sends chan<- hybridSend) {
		cetricGlobalRows(pe, pl, lg, cut, &rule, lo, hi, sends)
	})
	op.finish()
	finishBody(pe, sw, state, cfg, out)
	return nil
}

// cetricLocalPhase runs EDGE ITERATOR over rows [lo,hi) of the expanded
// local graph, counting and classifying type-1/type-2 triangles. It works
// entirely in row space: A-lists are iterated as row indices (so ghost
// endpoints cost no lookup), each A(v) is stamped into the emission byte
// mark once, and every wedge (v,u) closes by probing A(u) against it (the
// expansion builds no hub bitmaps). A triangle is type 1 when all three
// corners are local, and rows below NLocal are exactly the locals, so the
// type is picked once per row: A(v) is row-sorted with ghosts last, and a
// ghost v makes every triangle of its row type 2, a local v with no ghost
// in A(v) every one type 1 — both count each wedge with the plain count.
// Only a local v with a ghost in A(v) splits: a ghost u's wedges are type 2,
// a local u's are split at NLocal on the mark by their closing vertex.
// LCC/collection, which need every closing vertex anyway, enumerate.
func cetricLocalPhase(lg *graph.LocalGraph, ori *graph.LocalOriented, state *countState, lo, hi int) {
	nLoc := uint32(lg.NLocal())
	enumerate := state.lcc || state.collect
	m := lazyMark(&state.emitMark, ori)
	var t1, t2 uint64
	for r := lo; r < hi; r++ {
		rv := int32(r)
		av := ori.OutRows(rv)
		if len(av) < 2 {
			continue // a single out-neighbor cannot close a triangle
		}
		m.Stamp(av)
		switch {
		case enumerate:
			cetricEnumerateRow(state, m, ori, rv, av, nLoc)
		case uint32(rv) >= nLoc:
			t2 += stampedRowCount(m, ori, av)
		case av[len(av)-1] < nLoc:
			t1 += stampedRowCount(m, ori, av)
		default:
			below, rest := stampedRowSplit(m, ori, av, nLoc)
			t1 += below
			t2 += rest
		}
		m.Unstamp()
	}
	state.t1 += t1
	state.t2 += t2
	state.count += t1 + t2
}

// stampedRowCount returns Σ_{u ∈ av} |A(u) ∩ av| for the row list av
// stamped in m. Kept out of line: inlined into cetricLocalPhase, its loop
// spills its index and sum to the stack on every probed entry.
//
//go:noinline
func stampedRowCount(m *graph.Mark, ori *graph.LocalOriented, av []uint32) (c uint64) {
	for _, ur := range av {
		c += m.CountList(ori.OutRows(int32(ur)))
	}
	return c
}

// stampedRowSplit is stampedRowCount for a local row with a ghost in av,
// split by type: a ghost u's wedges are type 2, a local u's are split at
// nLoc by their closing vertex.
//
//go:noinline
func stampedRowSplit(m *graph.Mark, ori *graph.LocalOriented, av []uint32, nLoc uint32) (t1, t2 uint64) {
	for _, ur := range av {
		au := ori.OutRows(int32(ur))
		if ur >= nLoc {
			t2 += m.CountList(au)
			continue
		}
		below, rest := m.CountListSplit(au, nLoc)
		t1 += below
		t2 += rest
	}
	return t1, t2
}

// cetricEnumerateRow is cetricLocalPhase's for-each shape for one stamped
// row rv: every closing vertex is recorded, and a triangle is type 1 when v,
// u and the closing vertex are all local.
func cetricEnumerateRow(state *countState, m *graph.Mark, ori *graph.LocalOriented, rv int32, av []uint32, nLoc uint32) {
	for _, ur := range av {
		ru := int32(ur)
		local := uint32(rv) < nLoc && ur < nLoc
		m.ForEachCommonList(ori.OutRows(ru), func(w uint32) {
			state.addRows(rv, ru, int32(w))
			if local && w < nLoc {
				state.t1++
			} else {
				state.t2++
			}
		})
	}
}

// cetricGlobalRows ships the contracted cut neighborhoods of local rows
// [lo,hi) to the PEs of the partners the rule gives them on the cut graph —
// for a light v the y ∈ A(v) with d⁺(y) < heavyOutDegree, for a heavy v the
// ghosts y ∈ N(v) with 0 < d⁺(y) < d⁺(v) and the y ∈ A(v) with d⁺(y) =
// d⁺(v), d⁺ being cut out-degrees — as (v, A(v)...) records with the
// surrogate dedup, or per-edge (v, u, A(v)...) records under the
// no-surrogate ablation (sh.toPartner). An approximate run ships the filter
// A'(v) instead, built once per row and sent with the same dedup to every
// PE A(v) reaches. Shipments go through sends (funneled) or directly to the
// queue when sends is nil — the same contract as ditricLocalRows.
func cetricGlobalRows(pe *dist.PE, pl *plan, lg *graph.LocalGraph, cut *graph.LocalOriented, rule *wedgeRule,
	lo, hi int, sends chan<- hybridSend) {
	pt, noSurrogate := pl.pt, pl.cfg.noSurrogate
	nLoc := uint32(lg.NLocal())
	sh := getShipper(pe, sends)
	defer sh.put()
	for r := lo; r < hi; r++ {
		rv := int32(r)
		v := lg.GID(rv)
		av := cut.Out(rv)
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
		if rule.heavyRow(len(av)) {
			for _, y := range lg.RowNeighborRows(rv) {
				// A heavy row's neighbours on its own PE share no cut edge with it.
				if y >= nLoc && probesHeavy(int(rule.dplus[y]), len(av), lg, y, av) {
					u := lg.GID(int32(y))
					sh.toPartner(noSurrogate, pt.Rank(u), v, u, av, &lastRank)
				}
			}
			continue
		}
		avRows := cut.OutRows(rv) // the ghosts of av, in the same order
		for k, u := range av {
			// A PE the row's record already goes to needs no d⁺ test.
			if j := pt.Rank(u); (noSurrogate || j != lastRank) && rule.dplus[avRows[k]] < rule.heavy {
				sh.toPartner(noSurrogate, j, v, u, av, &lastRank)
			}
		}
	}
}
