package core

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/graph"
)

// Queue channels used by the distributed algorithms. Each channel's record
// shape determines its wire codec — see channelCodecs in codec.go for the
// assignment and rationale.
const (
	chNeigh  = 0 // (v, A(v)) neighborhood shipments
	chDelta  = 1 // (gid, Δ) ghost triangle-count aggregation (LCC)
	chDegReq = 2 // a PE's ghosts owned by the receiver, ascending: a degree request
	chDeg    = 3 // the degrees a chDegReq record asked for, in its order
	chOutDeg = 4 // the d⁺ of the same ghosts, in the same order
	chAMQ    = 5 // (v, |A(v)|, bloom words) approximate shipments
	chDeltaF = 6 // (gid, Float64bits(Δ̂)) approximate ghost Δ aggregation
	// chNeighEdge carries per-edge records (v, u, A(v)...) used when the
	// surrogate dedup is disabled: the receiver intersects only for the named
	// u, exactly Algorithm 2's semantics (otherwise repeated shipments of the
	// same neighborhood would double count).
	chNeighEdge = 7
)

// countState accumulates one PE's triangles, per-row Δ counts and optional
// triangle collection. Rows cover locals and ghosts, so every increment from
// both the local and the receive side lands in deltaRows (every corner of a
// triangle a PE finds is one of its locals or ghosts — the type analysis
// behind the paper's Lemma 1); ghost rows are shipped to their owners in the
// postprocessing exchange.
type countState struct {
	lg         *graph.LocalGraph
	lcc        bool
	collect    bool
	count      uint64
	t1, t2, t3 uint64
	deltaRows  []uint64
	triangles  [][3]graph.Vertex

	// recvWork meters receive-side intersection work in words scanned, as
	// the kernels scan them: a stamped record is charged its rows here once
	// plus the probed side of every partner (graph.LocalOriented.Probe); the
	// single intersections that stay on the global-ID merge (a record with
	// one partner, a per-edge record) are charged list + partner.
	// Deterministic and schedule-independent, unlike wall-clock: it is the
	// per-PE global-phase load, exported via comm.Metrics.RecvWorkWords.
	// TestRecvWorkMatchesRuleOracle recomputes it from the global graph.
	recvWork uint64

	// rule picks, per received record, the local rows that probe it (see
	// wedgeRule); partners is the scratch that holds them, reused across
	// records like tr, the receive-side translation scratch (see
	// graph.RowTranslator), so steady-state receive processing allocates
	// nothing.
	rule     wedgeRule
	partners []uint32
	tr       graph.RowTranslator

	// The stamped wedge kernel's marks (graph.Mark, one byte per row),
	// allocated on first use: emitMark holds the A(v) of the emission row
	// being swept, recvMark a received record's translated list. Two, not
	// one, because at Threads == 1 queue handlers run inline inside
	// shipper.ship — a record can be received while an emission row is
	// still stamped, and one shared mark would blend the two lists. Nothing
	// nests deeper: the receive path never sends.
	emitMark, recvMark *graph.Mark

	// An approximate run's receive side (nil amq on exact runs; positive
	// filter probes count as t3): the filter config, the expanded orientation
	// (v's ghost row there is A(v) ∩ V_i), the type-3 estimate, per-row Δ
	// estimates under LCC, and the positions of the probed pair's hits.
	amq      *AMQConfig
	amqOri   *graph.LocalOriented
	amqEst   float64
	deltaEst []float64
	hits     []int32
}

func newCountState(lg *graph.LocalGraph, cfg Config) *countState {
	s := &countState{lg: lg, lcc: cfg.LCC, collect: cfg.Collect}
	if s.lcc {
		s.deltaRows = make([]uint64, lg.Rows())
	}
	return s
}

// useAMQ switches s to an approximate run's receive side (a no-op for nil).
func (s *countState) useAMQ(a *AMQConfig, ori *graph.LocalOriented) {
	s.amq, s.amqOri = a, ori
	if a != nil && s.lcc {
		s.deltaEst = make([]float64, s.lg.Rows())
	}
}

// add records one triangle (corners as global IDs, all must be rows).
func (s *countState) add(v, u, w graph.Vertex) {
	s.count++
	if s.lcc {
		s.deltaRows[s.lg.Row(v)]++
		s.deltaRows[s.lg.Row(u)]++
		s.deltaRows[s.lg.Row(w)]++
	}
	if s.collect {
		s.triangles = append(s.triangles, CanonTriangle(v, u, w))
	}
}

// addRows records one triangle given as row indices — the hot-path twin of
// add with no global-ID lookups.
func (s *countState) addRows(rv, ru, rw int32) {
	s.count++
	if s.lcc {
		s.deltaRows[rv]++
		s.deltaRows[ru]++
		s.deltaRows[rw]++
	}
	if s.collect {
		lg := s.lg
		s.triangles = append(s.triangles, CanonTriangle(lg.GID(rv), lg.GID(ru), lg.GID(rw)))
	}
}

// lazyMark returns *slot, allocating the mark over o's row domain on first
// use.
func lazyMark(slot **graph.Mark, o *graph.LocalOriented) *graph.Mark {
	if *slot == nil {
		*slot = o.NewRowMark()
	}
	return *slot
}

// recvNeigh processes one received (v, A(v)) record: A(v) is stamped once and
// probed by every local partner the rule gives it (wedgeRule). For a light v
// those are the locals u ∈ A(v) with d⁺(u) < heavyOutDegree; for a heavy v,
// whose ghost row here holds N(v) ∩ V_i, the neighbours u with 0 < d⁺(u) <
// |A(v)| and the u ∈ A(v) with d⁺(u) = |A(v)|. One pass collects them and
// picks the strategy: none, drop the record; one (and no LCC/collection), a
// single intersection with nothing to amortise, which stays on the global-ID
// merge/gallop kernels and skips the row translation; otherwise translate
// once, in one pass and in list order (graph.TranslateRowSet: nothing
// below depends on the stamped list's order), stamp the translated list
// into the byte mark recvMark once, and probe every partner's A(u) against
// it, one byte load per entry — the list is paid for once, not once per
// partner. Linear in the lengths involved and zero allocations per record
// either way. Returns the number of triangles found.
func (s *countState) recvNeigh(v graph.Vertex, list []uint64, o *graph.LocalOriented) uint64 {
	lg, rule := s.lg, &s.rule
	ps := s.partners[:0]
	if rule.heavyRow(len(list)) {
		gr, _ := lg.GhostRow(v) // checkNeigh: a heavy record's v is a ghost row here
		for _, u := range lg.RowNeighborRows(gr) {
			if probesHeavy(int(rule.dplus[u]), len(list), lg, u, list) {
				ps = append(ps, u)
			}
		}
	} else {
		first, nLoc := lg.First, uint64(lg.NLocal())
		for _, x := range list {
			if u := x - first; u < nLoc && rule.dplus[u] < rule.heavy {
				ps = append(ps, uint32(u))
			}
		}
	}
	s.partners = ps
	fast := !s.lcc && !s.collect
	switch {
	case len(ps) == 0:
		return 0
	case len(ps) == 1 && fast:
		partner := o.Out(int32(ps[0]))
		s.recvWork += uint64(len(list) + len(partner))
		c := graph.CountIntersect(list, partner)
		s.count += c
		return c
	}
	rows := lg.TranslateRowSet(&s.tr, list)
	rv := int32(-1)
	if !fast {
		// v is adjacent to a local partner, so it is a row (ghost) here.
		rv = lg.Row(v)
	}
	m := lazyMark(&s.recvMark, o)
	m.Stamp(rows)
	s.recvWork += uint64(len(rows))
	var c uint64
	for _, ur := range ps {
		n, probed := s.countWedgeRows(m, rv, int32(ur), o)
		s.recvWork += uint64(probed)
		c += n
	}
	m.Unstamp()
	return c
}

// recvNeighEdge processes one received (v, u, A(v)) record (the per-edge
// shipment of the no-surrogate ablation, sent only where the rule makes u
// v's partner): intersect only for the named u —
// a single intersection with nothing to amortise, so nothing is stamped and
// the fast path stays on global IDs, skipping the row translation entirely.
func (s *countState) recvNeighEdge(v, u graph.Vertex, list []uint64, o *graph.LocalOriented) uint64 {
	if !s.lg.IsLocal(u) {
		return 0
	}
	ru := int32(u - s.lg.First)
	if !s.lcc && !s.collect {
		partner := o.Out(ru)
		s.recvWork += uint64(len(list) + len(partner))
		c := graph.CountIntersect(list, partner)
		s.count += c
		return c
	}
	rows, _ := s.lg.TranslateRows(&s.tr, list)
	rv := s.lg.Row(v)
	var c uint64
	s.recvWork += uint64(len(rows) + o.OutDegree(ru))
	graph.ForEachCommon(rows, o.OutRows(ru), func(w uint32) {
		s.addRows(rv, ru, int32(w))
		c++
	})
	return c
}

// recvRecord processes one received global-phase record against the
// receiver structure o: a (v, A(v)) neighborhood, the no-surrogate
// ablation's per-edge record, or an approximate run's filter A'(v). Returns
// the number of triangles found — for a filter, of positive probes.
func (s *countState) recvRecord(r recvRecord, o *graph.LocalOriented) uint64 {
	switch r.kind {
	case chNeighEdge:
		return s.recvNeighEdge(r.v, r.u, r.list, o)
	case chAMQ:
		return s.probeAMQ(r.v, r.list, o)
	}
	return s.recvNeigh(r.v, r.list, o)
}

// countWedgeRows records the triangles closing the wedge rooted at the
// oriented edge (rv, ru), where A(rv) in row space is the list the caller
// stamped into m once for all of rv's partners: A(ru) probed against the
// byte mark, or under TriC, when ru is a hub and the stamped list the
// shorter side, the stamped list probed against ru's bitmap
// (graph.LocalOriented.Probe); then the count shape of the kernel, or the
// for-each shape when LCC/collection need every closing vertex. Returns the
// triangles found and the entries probed for them.
func (s *countState) countWedgeRows(m *graph.Mark, rv, ru int32, o *graph.LocalOriented) (c uint64, probed int) {
	hub, probe := o.Probe(m, ru)
	if !s.lcc && !s.collect {
		if hub != nil {
			c = graph.CountList(hub, probe)
		} else {
			c = m.CountList(probe)
		}
		s.count += c
		return c, len(probe)
	}
	emit := func(w uint32) {
		s.addRows(rv, ru, int32(w))
		c++
	}
	if hub != nil {
		graph.ForEachCommonList(hub, probe, emit)
	} else {
		m.ForEachCommonList(probe, emit)
	}
	return c, len(probe)
}

// merge folds a worker's private counters into s.
func (s *countState) merge(w *countState) {
	s.count += w.count
	s.t1 += w.t1
	s.t2 += w.t2
	s.t3 += w.t3
	s.recvWork += w.recvWork
	s.amqEst += w.amqEst
	if s.lcc {
		for i, d := range w.deltaRows {
			s.deltaRows[i] += d
		}
		for i, d := range w.deltaEst {
			s.deltaEst[i] += d
		}
	}
	s.triangles = append(s.triangles, w.triangles...)
}

// handleDelta processes ghost Δ aggregation records [gid, Δ, gid, Δ, ...].
func (s *countState) handleDelta(src int, words []uint64) {
	checkLocalPairs(s.lg, src, words, "Δ")
	for i := 0; i < len(words); i += 2 {
		s.deltaRows[words[i]-s.lg.First] += words[i+1]
	}
}

// handleDeltaEst processes an approximate run's ghost Δ records
// [gid, Float64bits(Δ̂), ...].
func (s *countState) handleDeltaEst(src int, words []uint64) {
	checkLocalPairs(s.lg, src, words, "Δ̂")
	for i := 0; i < len(words); i += 2 {
		s.deltaEst[words[i]-s.lg.First] += math.Float64frombits(words[i+1])
	}
}

// checkLocalPairs validates a record of pairs [x, w, x, w, ...] whose every
// x must be a local row of the receiver: a ghost's Δ travels to its owner.
// An odd length, or an x owned elsewhere, is a corrupt frame from src,
// rejected before any pair is applied.
func checkLocalPairs(lg *graph.LocalGraph, src int, words []uint64, what string) {
	if len(words)%2 != 0 {
		panic(&comm.CorruptFrameError{Src: src, Reason: fmt.Sprintf(
			"%s record of %d words is not a list of pairs", what, len(words))})
	}
	for i := 0; i < len(words); i += 2 {
		if !lg.IsLocal(words[i]) {
			panic(&comm.CorruptFrameError{Src: src, Reason: fmt.Sprintf(
				"%s record names vertex %d, which PE %d does not own", what, words[i], lg.Rank)})
		}
	}
}

// flushGhostDeltas sends each owner one record [gid, Δ, gid, Δ, ...] of its
// ghosts with a non-zero Δ; callers must Drain after. Ghost rows are
// numbered in ID order and owners hold contiguous ID ranges, so an owner's
// ghosts are one run of rows, and its record is complete when the run ends.
// An approximate run first adds the exact local-stage Δ into its estimates,
// once, and ships those instead.
func (s *countState) flushGhostDeltas(pe *dist.PE) {
	if !s.lcc {
		return
	}
	ch, word := chDelta, func(row int) uint64 { return s.deltaRows[row] }
	if s.deltaEst != nil {
		for r, d := range s.deltaRows {
			s.deltaEst[r] += float64(d)
		}
		ch, word = chDeltaF, func(row int) uint64 { return math.Float64bits(s.deltaEst[row]) }
	}
	lg := s.lg
	var rec []uint64
	owner := -1
	for i, gid := range lg.Ghosts() {
		if o := lg.Part.Rank(gid); o != owner {
			if len(rec) > 0 {
				pe.Q.Send(ch, owner, rec)
				rec = rec[:0]
			}
			owner = o
		}
		if w := word(lg.NLocal() + i); w != 0 {
			rec = append(rec, gid, w)
		}
	}
	if len(rec) > 0 {
		pe.Q.Send(ch, owner, rec)
	}
}

// finish copies the per-PE result into out. The local rows' Δ values (now
// complete after the postprocess exchange) are exported as one slice: a
// PE's locals are the contiguous ID range starting at First.
func (s *countState) finish(out *peOutcome) {
	out.count = s.count
	out.typeCounts = [3]uint64{s.t1, s.t2, s.t3}
	out.triangles = s.triangles
	out.amqEst = s.amqEst
	if s.lcc {
		nLoc := s.lg.NLocal()
		out.first = s.lg.First
		out.deltas = s.deltaRows[:nLoc]
		if s.deltaEst != nil {
			out.deltaEst = s.deltaEst[:nLoc]
		}
	}
}

// ghostRequests are the request lists of one degree exchange: sent[owner]
// the ghosts this PE asked owner about, got[src] the locals src asked about.
// exchangeOutDegrees answers them again once the orientation is known.
type ghostRequests struct {
	sent, got [][]uint64
}

// exchangeGhostDegrees implements exchange_ghost_degree (Algorithm 3 line 1)
// as one sparse round on the queue. A PE sends each owner of its ghosts one
// chDegReq record, the ghosts it owns in ID order, and sends nothing to any
// other PE. The owner's handler answers with their degrees in the same
// order from inside the same Drain, whose termination detector counts the
// replies a handler sends; the requester's handler applies them. Who asks
// stays the requester: the owner never pushes degrees.
func exchangeGhostDegrees(pe *dist.PE, lg *graph.LocalGraph) ghostRequests {
	gr := ghostRequests{sent: make([][]uint64, pe.P), got: make([][]uint64, pe.P)}
	var reply []uint64
	pe.Q.Handle(chDegReq, func(src int, gids []uint64) {
		reply = reply[:0]
		for _, gid := range gids {
			reply = append(reply, ownedDegree(lg, src, gid))
		}
		gr.got[src] = slices.Clone(gids) // gids aliases the queue's decode arena
		pe.Q.Send(chDeg, src, reply)
	})
	pe.Q.Handle(chDeg, func(owner int, degs []uint64) {
		applyDegreeReply(lg, owner, gr.sent[owner], degs)
	})
	ghosts := lg.Ghosts() // ascending, so each owner's ghosts are one run
	for lo := 0; lo < len(ghosts); {
		owner := lg.Part.Rank(ghosts[lo])
		_, end := lg.Part.Range(owner)
		hi, _ := slices.BinarySearch(ghosts, end)
		gr.sent[owner] = ghosts[lo:hi:hi]
		pe.Q.Send(chDegReq, owner, gr.sent[owner])
		lo = hi
	}
	pe.Q.Drain()
	return gr
}

// ownedDegree answers src's request for the degree of gid. A request for a
// vertex this PE does not own is a corrupt frame: no row here holds its
// whole neighborhood.
func ownedDegree(lg *graph.LocalGraph, src int, gid uint64) uint64 {
	if !lg.IsLocal(gid) {
		panic(&comm.CorruptFrameError{Src: src, Reason: fmt.Sprintf(
			"degree request for vertex %d, which PE %d does not own", gid, lg.Rank)})
	}
	return uint64(lg.Degree(int32(gid - lg.First)))
}

// applyDegreeReply records the degrees owner sent back for the ghosts this
// PE requested from it, gids[k] getting degs[k]. A reply of any other length,
// or with a degree no vertex can have (≥ n), is a corrupt frame.
func applyDegreeReply(lg *graph.LocalGraph, owner int, gids, degs []uint64) {
	if len(degs) != len(gids) {
		panic(&comm.CorruptFrameError{Src: owner, Reason: fmt.Sprintf(
			"degree reply holds %d degrees for %d requested ghosts", len(degs), len(gids))})
	}
	for k, d := range degs {
		if d >= lg.Part.N() {
			panic(&comm.CorruptFrameError{Src: owner, Reason: fmt.Sprintf(
				"degree reply gives ghost %d degree %d on %d vertices", gids[k], d, lg.Part.N())})
		}
		row, _ := lg.GhostRow(gids[k])
		lg.SetGhostDegree(row, int(d))
	}
}

// mergeOutcomes folds per-PE outcomes into a Result.
func mergeOutcomes(outcomes []*peOutcome, metrics []comm.Metrics, g *graph.Graph, cfg Config) *Result {
	res := &Result{
		PerPE:     metrics,
		Agg:       comm.AggregateOf(metrics),
		Phases:    make(map[string]time.Duration),
		PhaseComm: make(map[string]comm.Aggregate),
	}
	phaseMetrics := make(map[string][]comm.Metrics)
	for _, out := range outcomes {
		res.Count += out.count
		for i := 0; i < 3; i++ {
			res.TypeCounts[i] += out.typeCounts[i]
		}
		res.Triangles = append(res.Triangles, out.triangles...)
		for name, d := range out.phases {
			if d > res.Phases[name] {
				res.Phases[name] = d
			}
		}
		for name, m := range out.phaseComm {
			phaseMetrics[name] = append(phaseMetrics[name], m)
		}
	}
	for name, ms := range phaseMetrics {
		res.PhaseComm[name] = comm.AggregateOf(ms)
	}
	if cfg.LCC {
		res.Deltas = make([]uint64, g.NumVertices())
		for _, out := range outcomes {
			copy(res.Deltas[out.first:], out.deltas)
		}
		res.LCC = LCCFromDeltas(g, res.Deltas)
	}
	return res
}
