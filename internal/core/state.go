package core

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/graph"
)

// Queue channels used by the distributed algorithms. Each channel's record
// shape determines its tuned wire codec under the "auto" policy — see
// channelCodecs in codec.go for the assignment and rationale.
const (
	chNeigh  = 0 // (v, A(v)) neighborhood shipments
	chDelta  = 1 // (gid, Δ) ghost triangle-count aggregation (LCC)
	chDegReq = 2 // ghost degree requests: [gid...]
	chDegRep = 3 // ghost degree replies: [deg...], in request order
	chWedge  = 4 // HavoqGT-style wedge-check visitors: [a, b, ...]
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
	// the kernels scan them: a stamped record is charged its length once plus
	// the probed side of every partner (graph.LocalOriented.Probe); the
	// single intersections that stay on the global-ID merge (a record with
	// one local endpoint, a per-edge record) are charged list + partner.
	// Deterministic and schedule-independent, unlike wall-clock: it is the
	// per-PE global-phase load, exported via comm.Metrics.RecvWorkWords.
	recvWork uint64

	// Receive-side translation scratch (see graph.RowTranslator). Reused
	// across records so steady-state receive processing allocates nothing.
	tr graph.RowTranslator

	// The stamped wedge kernel's marks (graph.RowMark), allocated on first
	// use: emitMark holds the A(v) of the emission row being swept, recvMark
	// a received record's translated list. Two, not one, because at
	// Threads == 1 queue handlers run inline inside shipper.ship — a record
	// can be received while an emission row is still stamped, and one shared
	// bitset would blend the two lists. Nothing nests deeper: the receive
	// path never sends.
	emitMark, recvMark *graph.RowMark

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

// countEdge intersects av = A(v) with au = A(u) for the directed edge (v,u),
// recording every triangle. Fast path without LCC/collection. This is the
// global-ID path kept for the baselines (TriC); DITRIC/CETRIC run the
// row-space path below.
func (s *countState) countEdge(v, u graph.Vertex, av, au []graph.Vertex) uint64 {
	if !s.lcc && !s.collect {
		c := graph.CountIntersect(av, au)
		s.count += c
		return c
	}
	var c uint64
	graph.ForEachCommon(av, au, func(w graph.Vertex) {
		s.add(v, u, w)
		c++
	})
	return c
}

// lazyMark returns *slot, allocating the mark over o's row domain on first
// use.
func lazyMark(slot **graph.RowMark, o *graph.LocalOriented) *graph.RowMark {
	if *slot == nil {
		*slot = o.NewRowMark()
	}
	return *slot
}

// recvNeigh processes one received (v, A(v)) record: the list is intersected
// with A(u) for every local endpoint u it contains. A cheap range-check scan
// counts those endpoints and picks the strategy: none, drop the record; one
// (and no LCC/collection), a single intersection with nothing to amortise,
// which stays on the global-ID merge/gallop kernels and skips the row
// translation; otherwise translate once (one O(1) ghost-index probe per
// non-local entry, graph.TranslateRows), stamp the translated list into
// recvMark once, and probe every endpoint's A(u) against it — the list is
// paid for once, not once per endpoint. Linear in the lengths involved and
// zero allocations per record either way. Returns the number of triangles
// found.
func (s *countState) recvNeigh(v graph.Vertex, list []uint64, o *graph.LocalOriented) uint64 {
	lg := s.lg
	kept := 0
	first := int32(-1)
	for _, x := range list {
		if !lg.IsLocal(x) {
			continue
		}
		if kept == 0 {
			first = int32(x - lg.First)
		}
		kept++
	}
	fast := !s.lcc && !s.collect
	switch {
	case kept == 0:
		return 0
	case kept == 1 && fast:
		partner := o.Out(first)
		s.recvWork += uint64(len(list) + len(partner))
		c := graph.CountIntersect(list, partner)
		s.count += c
		return c
	}
	rows, nLoc := lg.TranslateRows(&s.tr, list)
	rv := int32(-1)
	if !fast {
		// v is adjacent to a kept local vertex, so it is a row (ghost) here.
		rv = lg.Row(v)
	}
	m := lazyMark(&s.recvMark, o)
	m.Stamp(rows)
	s.recvWork += uint64(len(rows))
	var c uint64
	for _, ur := range rows[:nLoc] {
		n, probed := s.countWedgeRows(m, rv, int32(ur), o)
		s.recvWork += uint64(probed)
		c += n
	}
	m.Unstamp()
	return c
}

// recvNeighEdge processes one received (v, u, A(v)) record (the per-edge
// shipment of the no-surrogate ablation): intersect only for the named u —
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
	graph.ForEachCommon(rows, o.OutRows(ru), func(w graph.Vertex) {
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
// stamped into m once for all of rv's partners: one dispatch
// (graph.LocalOriented.Probe: the mark probed with A(ru), or a hub ru's
// bitmap probed with the shorter stamped list), then the count shape of the
// kernel, or the for-each shape when LCC/collection need every closing
// vertex. Returns the triangles found and the words probed for them.
func (s *countState) countWedgeRows(m *graph.RowMark, rv, ru int32, o *graph.LocalOriented) (c uint64, probed int) {
	set, probe := o.Probe(m, ru)
	if !s.lcc && !s.collect {
		c = set.CountList(probe)
		s.count += c
		return c, len(probe)
	}
	set.ForEachCommonList(probe, func(w graph.Vertex) {
		s.addRows(rv, ru, int32(w))
		c++
	})
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
func (s *countState) handleDelta(_ int, words []uint64) {
	for i := 0; i+1 < len(words); i += 2 {
		s.deltaRows[s.lg.Row(words[i])] += words[i+1]
	}
}

// handleDeltaEst processes an approximate run's ghost Δ records
// [gid, Float64bits(Δ̂), ...].
func (s *countState) handleDeltaEst(_ int, words []uint64) {
	for i := 0; i+1 < len(words); i += 2 {
		s.deltaEst[s.lg.Row(words[i])] += math.Float64frombits(words[i+1])
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
	out.finished = true
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

// exchangeGhostDegrees implements exchange_ghost_degree (Algorithm 3 line 1)
// either with the dense all-to-all the paper defaults to, or with the
// asynchronous sparse all-to-all (NBX style: direct messages to actual
// communication partners + termination detection). Reply construction — the
// degree lookup per requested ghost, previously the last single-threaded
// per-PE preprocess sub-phase — fans out over the same chunk-stealing
// workers as the rest of the pipeline (graph.ParallelFor), flattened across
// the per-source request lists so a few large requesters cannot serialize
// the stage.
func exchangeGhostDegrees(pe *dist.PE, lg *graph.LocalGraph, sparse bool, threads int) {
	if sparse {
		exchangeGhostDegreesSparse(pe, lg)
		return
	}
	p := pe.P
	reqs := make([][]uint64, p)
	for _, g := range lg.Ghosts() {
		owner := lg.Part.Rank(g)
		reqs[owner] = append(reqs[owner], g)
	}
	gotReqs := pe.C.DenseExchange(reqs)
	replies := make([][]uint64, p)
	var srcs []int // sources with a non-empty request list
	var offs []int // prefix offsets of their lists in the flattened index
	total := 0
	for src, list := range gotReqs {
		if src == pe.Rank || len(list) == 0 {
			continue
		}
		replies[src] = make([]uint64, len(list))
		srcs = append(srcs, src)
		offs = append(offs, total)
		total += len(list)
	}
	graph.ParallelFor(threads, total, func(_, lo, hi int) {
		// Locate the source span containing lo, then walk forward; a chunk
		// crossing span boundaries continues into the next source.
		si := sort.Search(len(offs), func(i int) bool { return offs[i] > lo }) - 1
		for i := lo; i < hi; si++ {
			src, base := srcs[si], offs[si]
			list, rep := gotReqs[src], replies[src]
			end := min(hi, base+len(list))
			for ; i < end; i++ {
				rep[i-base] = ownedDegree(lg, src, list[i-base])
			}
		}
	})
	for owner, degs := range pe.C.DenseExchange(replies) {
		applyDegreeReply(lg, owner, reqs[owner], degs)
	}
}

// exchangeGhostDegreesSparse is the exchange over the queue: one request
// record [gid...] per owner, answered by one reply record [deg...] in
// request order.
func exchangeGhostDegreesSparse(pe *dist.PE, lg *graph.LocalGraph) {
	reqs := make(map[int][]uint64)
	for _, g := range lg.Ghosts() {
		owner := lg.Part.Rank(g)
		reqs[owner] = append(reqs[owner], g)
	}
	pe.Q.Handle(chDegReq, func(src int, words []uint64) {
		rep := make([]uint64, len(words))
		for k, gid := range words {
			rep[k] = ownedDegree(lg, src, gid)
		}
		pe.Q.Send(chDegRep, src, rep)
	})
	pe.Q.Handle(chDegRep, func(src int, degs []uint64) {
		applyDegreeReply(lg, src, reqs[src], degs)
	})
	for owner, gids := range reqs {
		pe.Q.Send(chDegReq, owner, gids)
	}
	pe.Q.Drain()
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
		if out == nil {
			continue // PE aborted before its body allocated an outcome
		}
		if !out.finished {
			// Degraded merge: the body aborted mid-run, count what its last
			// phase-boundary snapshot had.
			res.Count += out.partialCount
			continue
		}
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
			if out == nil {
				continue
			}
			copy(res.Deltas[out.first:], out.deltas)
		}
		res.LCC = LCCFromDeltas(g, res.Deltas)
	}
	return res
}
