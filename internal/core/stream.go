package core

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/part"
)

// Streaming ingestion + incremental counting (RunStream). The one-shot
// driver materializes the full edge list and a complete p-way scatter
// before any PE starts building; the streaming driver feeds scattered
// batches through per-PE channels instead, so driver memory stays
// O(|E_i| + batch). On top of the incremental build it maintains the
// triangle count under batched edge insertions: after the initial graph is
// sealed and counted once with the regular DITRIC/CETRIC machinery, each
// inserted batch Δ is delta-counted as tri(G+Δ) − tri(G) — the triangles
// with at least one Δ edge — without ever recounting G.
//
// The delta identity is the bulk-update scheme of Tangwongsan, Pavan &
// Tirthapura (arXiv:1308.2166): for each effective-new edge (v,w), with
// old(x) the pre-batch neighborhood and Δ(x) the batch's strictly-new
// neighbors of x,
//
//	n0 += |old(v) ∩ old(w)|   (triangles with exactly this one new edge)
//	n1 += |old(v) ∩ Δ(w)| + |Δ(v) ∩ old(w)|   (two new edges: seen twice)
//	n2 += |Δ(v) ∩ Δ(w)|       (three new edges: seen three times)
//
// and the batch's triangle delta is n0 + n1/2 + n2/3 — divided only after
// the global sum, since per-PE shares need not be divisible. Lists stay in
// global-ID space and unoriented: degree orientation is unstable under
// inserts (an insert can flip an edge's direction and would force
// re-orientation per batch), and n0 counts closing vertices on either side
// of (v,w), so old(v) cannot be sliced by ID either without a per-triangle
// ownership rule, i.e. a different identity. Double counting cannot occur
// because every new edge is processed exactly once, at the owner of its
// smaller endpoint.
//
// Protocol (one per batch, after every PE has staged its slice). A touched
// row crosses the wire once per destination PE, not once per cut edge — the
// surrogate scheme of Arifuzzaman et al. that DITRIC applies to A(v), here
// applied to (Δ(v), old(v)):
//
//	record   [v, |Δ(v)|, Δ(v)..., old(v)...] on chNeighEdge
//	sender   the owner of v, once for every remote PE that owns some
//	         w ∈ Δ(v) with w < v. Δ(v) is ascending and every 1D partition
//	         is contiguous ID ranges, so those entries form one run per PE:
//	         the record leaves at the first entry of each run.
//	receiver finds its own partners — the sub-run of the shipped Δ(v) inside
//	         its range [First, Last), all of them below v because the range
//	         is — and counts every one against the one decoded record. Both
//	         owners stage every cut edge (the scatter hands it to both, and
//	         resident rows stay symmetric across PEs by induction), so that
//	         sub-run is exactly the set of pairs (v,w) this PE must count.
//
// Kernel: each pair probes the shorter side, and reads each probed entry
// once. The record's old(v) and Δ(v), L entries, are stamped once into one
// byte mark over global IDs (graph.SplitMark: 1 for old(v), 2 for Δ(v)),
// so one byte load per entry of a partner's old(w) or Δ(w) yields both of
// that entry's category hits. A partner w whose old(w) is longer than the
// record and carries a row bitmap (the StreamBuilder keeps one over [0, n)
// for every row of at least BitsetWords(n) entries) turns the probe around:
// old(v) and Δ(v) are tested against w's bitmap and only Δ(w) against the
// mark, L + |Δ(w)| bit tests instead of |old(w)| + |Δ(w)|. Any other
// partner is probed against the mark, unless its lists are skewed against
// the record (graph.Skewed, the intersection kernels' own gallop ratio):
// then the pairwise merge/gallop kernels (pair) keep a short record meeting
// an unindexed long row from scanning that row. The mark costs n bytes per
// PE, O(n) — what the StreamBuilder's own row headers cost at p ≈ 28 — and
// the row bitmaps at most one word per resident entry; both come with the
// engine at the first insert batch, so a pure-ingestion stream pays for
// neither.

// BatchSource yields successive edge batches of a stream. Returning nil or
// an empty batch ends the source. Batches may be any size; the driver
// scatters each batch and hands every PE its slice, so a source never needs
// to know the partition.
type BatchSource func() []graph.Edge

// SliceBatches adapts an in-memory edge list to a BatchSource yielding
// consecutive batches of at most batch edges (the whole slice at once when
// batch ≤ 0). The slice is not copied.
func SliceBatches(edges []graph.Edge, batch int) BatchSource {
	if batch <= 0 {
		batch = max(1, len(edges))
	}
	i := 0
	return func() []graph.Edge {
		if i >= len(edges) {
			return nil
		}
		j := min(i+batch, len(edges))
		b := edges[i:j]
		i = j
		return b
	}
}

// SplitStream turns an edge list into a RunStream's two sources: the first
// batch seeds the initial graph and the rest arrive as inserts, batch edges
// at a time. batch ≤ 0 picks max(1024, m/8); the size used is returned with
// the sources.
func SplitStream(edges []graph.Edge, batch int) (initial, inserts BatchSource, size int) {
	if batch <= 0 {
		batch = max(1024, len(edges)/8)
	}
	split := min(batch, len(edges))
	return SliceBatches(edges[:split], batch), SliceBatches(edges[split:], batch), batch
}

// StreamResult reports a streaming run.
type StreamResult struct {
	// Initial is the triangle count of the sealed initial graph.
	Initial uint64
	// Deltas holds the triangle-count increase contributed by each inserted
	// batch, in arrival order.
	Deltas []uint64
	// Count is the final triangle count: Initial plus all Deltas.
	Count uint64
	// Res carries the merged per-PE metrics and phase breakdown (its Count
	// equals the final Count; LCC/Collect fields stay empty — unsupported
	// while streaming).
	Res *Result

	tuples [][3]uint64 // per insert batch: the global (n0, n1, n2) behind Deltas
}

// feedItem is one PE's slice of one scattered batch.
type feedItem struct {
	edges  []graph.Edge
	insert bool // false: initial-build batch, true: delta-counted insertion
}

// streamOutcome is the per-PE streaming state collected by the driver.
type streamOutcome struct {
	tuples [][3]uint64 // per insert batch: (n0, n1, n2) shares
}

// streamThreshold is DefaultThreshold's per-PE analogue for streams: the
// driver cannot derive δ from |E| up front (the stream's size is unknown),
// so each PE resolves its own δ ∈ O(|E_i|) from the sealed resident size.
func streamThreshold(localEdges int) int { return max(localEdges, 1024) }

// RunStream executes algo over a streamed graph on n vertices: the initial
// source's batches are folded into the per-PE resident adjacency and
// counted once, then each batch of the inserts source is delta-counted.
// Either source may be nil. Counts are identical to Run on the union of all
// batches — duplicate edges and self-loops are dropped exactly like
// graph.FromEdges drops them. An edge with an endpoint ≥ n, in any batch,
// fails the run with an error naming the vertex.
func RunStream(algo Algorithm, n uint64, initial, inserts BatchSource, cfg Config) (*StreamResult, error) {
	if cfg.LCC || cfg.Collect {
		return nil, fmt.Errorf("core: streaming does not support LCC or triangle collection")
	}
	// The stream's size is unknown up front: m < 0 leaves an unset δ on the
	// queue's backstop until each PE resolves its own (streamThreshold).
	pl, err := prepare(algo, n, -1, cfg)
	if err != nil {
		return nil, err
	}
	if !pl.family {
		return nil, fmt.Errorf("core: streaming supports DITRIC/CETRIC, not %s", algo)
	}
	cfg = pl.cfg

	// The feeder scatters one batch at a time and blocks until every PE has
	// taken its slice (channel capacity 1 ⇒ at most two batches of scatter
	// slices are live), so driver-side memory stays O(batch), not O(|E|).
	// abortCh breaks the feed loop on both sides when any PE fails: a PE
	// blocked on its feed channel sits outside the transport, where the
	// runtime's abort flag could never reach it. A batch the feeder rejects
	// (feedErr) releases the PEs the same way; fed closes once the feeder
	// has returned, so RunStream leaves no goroutine behind and reads
	// feedErr after its last write.
	feeds := make([]chan feedItem, cfg.P)
	for i := range feeds {
		feeds[i] = make(chan feedItem, 1)
	}
	abortCh := make(chan struct{})
	var abortOnce sync.Once
	abort := func() { abortOnce.Do(func() { close(abortCh) }) }
	var feedErr error
	fed := make(chan struct{})
	go func() {
		defer close(fed)
		defer func() {
			for _, ch := range feeds {
				close(ch)
			}
		}()
		pump := func(src BatchSource, insert bool) bool {
			if src == nil {
				return true
			}
			for {
				batch := src()
				if len(batch) == 0 {
					return true
				}
				if feedErr = checkBatch(batch, n); feedErr != nil {
					abort()
					return false
				}
				slices := pl.scatter(batch)
				for i, ch := range feeds {
					select {
					case ch <- feedItem{edges: slices[i], insert: insert}:
					case <-abortCh:
						return false
					}
				}
			}
		}
		if pump(initial, false) {
			pump(inserts, true)
		}
	}()

	souts := make([]*streamOutcome, cfg.P)
	start := time.Now()
	outcomes, metrics, err := pl.run(func(pe *dist.PE, out *peOutcome) (err error) {
		defer func() {
			if r := recover(); r != nil {
				abort()
				panic(r)
			}
			if err != nil {
				abort()
			}
		}()
		so := &streamOutcome{}
		souts[pe.Rank] = so
		return streamBody(pe, pl, feeds[pe.Rank], abortCh, out, so)
	})
	abort() // normal completion: release the feeder if it is still blocked
	<-fed
	if feedErr != nil {
		return nil, feedErr
	}
	if err != nil {
		return nil, err
	}

	res := mergeOutcomes(outcomes, metrics, nil, cfg)
	res.Wall = time.Since(start)
	sr := &StreamResult{Res: res, Initial: res.Count, Count: res.Count}
	nb := len(souts[0].tuples)
	for _, so := range souts {
		if len(so.tuples) != nb {
			return nil, fmt.Errorf("core: stream feed skew: %d vs %d insert batches", len(so.tuples), nb)
		}
	}
	for b := 0; b < nb; b++ {
		var n0, n1, n2 uint64
		for _, so := range souts {
			n0 += so.tuples[b][0]
			n1 += so.tuples[b][1]
			n2 += so.tuples[b][2]
		}
		if n1%2 != 0 || n2%3 != 0 {
			// Globally n1 counts every two-new-edge triangle exactly twice
			// and n2 every three-new-edge triangle exactly three times; a
			// remainder means the pairing protocol lost or duplicated a record.
			return nil, fmt.Errorf("core: stream delta invariant violated in batch %d (n1=%d, n2=%d)", b, n1, n2)
		}
		d := n0 + n1/2 + n2/3
		sr.tuples = append(sr.tuples, [3]uint64{n0, n1, n2})
		sr.Deltas = append(sr.Deltas, d)
		sr.Count += d
	}
	res.Count = sr.Count
	return sr, nil
}

// checkBatch rejects a batch with an endpoint outside [0, n), naming the
// first such vertex: the scatter would panic on it in the feeder goroutine,
// where nothing could recover.
func checkBatch(batch []graph.Edge, n uint64) error {
	for _, e := range batch {
		if e.U >= n || e.V >= n {
			return fmt.Errorf("core: stream edge (%d,%d): vertex %d out of range n=%d", e.U, e.V, max(e.U, e.V), n)
		}
	}
	return nil
}

// recvFeed receives the next batch slice, aborting cleanly when a sibling
// PE has failed (the feeder may never close the channel in that case). The
// error wraps dist.ErrAborted: it echoes the sibling's failure, so dist.Run
// must not weigh it as a cause of its own.
func recvFeed(feed <-chan feedItem, abortCh <-chan struct{}) (feedItem, bool, error) {
	select {
	case item, ok := <-feed:
		return item, ok, nil
	case <-abortCh:
		return feedItem{}, false, fmt.Errorf("core: stream feed released: %w", dist.ErrAborted)
	}
}

// streamBody is the SPMD body of a streaming run: fold the initial batches,
// seal, count once with the regular machinery, then stage → delta-count →
// commit each inserted batch.
func streamBody(pe *dist.PE, pl *plan, feed <-chan feedItem, abortCh <-chan struct{},
	out *peOutcome, so *streamOutcome) error {
	pt, cfg := pl.pt, pl.cfg
	sw := newStopwatch(pe.C, out)
	sb := graph.NewStreamBuilder(pt, pe.Rank)

	sw.phase(PhaseIngest)
	var pending feedItem
	havePending, feedDone := false, false
	for {
		item, ok, err := recvFeed(feed, abortCh)
		if err != nil {
			return err
		}
		if !ok {
			feedDone = true
			break
		}
		if item.insert {
			pending, havePending = item, true
			break
		}
		sb.Fold(item.edges, cfg.Threads)
	}

	sw.phase(PhaseBuild)
	var lg *graph.LocalGraph
	if feedDone {
		// Pure-ingestion stream: the feeder has already delivered every batch
		// to every PE (batches go to all PEs in order, the channels close
		// last), so a closed feed with no insert item means no PE will ever
		// see one. The resident rows are dead weight beside the sealed CSR;
		// SealRelease frees each one as it is translated, keeping the streaming
		// loader's peak below the one-shot driver's.
		lg = sb.SealRelease(cfg.Threads)
		sb = nil
	} else {
		lg = sb.Seal(cfg.Threads)
	}
	if cfg.Threshold <= 0 {
		// δ ∈ O(|E_i|), resolved per PE now that the resident size is known
		// (the queue was built before the first batch arrived, on the 1<<16
		// backstop). Per-PE δ values may differ: δ is a local buffering
		// bound, not a protocol constant.
		pe.Q.SetThreshold(streamThreshold(lg.LocalEdges()))
	}
	if err := pl.count(pe, pl, lg, out, sw); err != nil {
		return err
	}
	if feedDone {
		// No insert batches anywhere (see above): every PE takes this exit.
		sw.stop()
		return nil
	}

	// The initial count is globally quiescent here (the bodies end in
	// Drain), so re-registering chNeighEdge cannot race an in-flight
	// one-shot record, and a staged record a faster PE sends waits until
	// this PE polls, which it does only after the handler is in.
	ss := newStreamState(sb, pt.N())
	pe.Q.Handle(chNeighEdge, ss.handle)

	for {
		var item feedItem
		if havePending {
			item, havePending = pending, false
		} else {
			next, ok, err := recvFeed(feed, abortCh)
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			item = next
		}
		sw.phase(PhaseStreamStage)
		sb.Stage(item.edges, cfg.Threads)
		sw.phase(PhaseStreamDelta)
		ss.countStaged(pe, pt)
		// Drain reaches global data quiescence for this batch, and it orders
		// batches: a batch t+1 record a faster PE ships waits, stashed, for
		// this PE's polls of batch t+1, after its own commit and staging.
		pe.Q.Drain()
		so.tuples = append(so.tuples, [3]uint64{ss.n0, ss.n1, ss.n2})
		ss.n0, ss.n1, ss.n2 = 0, 0, 0
		sw.phase(PhaseStreamCommit)
		sb.Commit(cfg.Threads)
		if cfg.Threshold <= 0 {
			// δ follows the resident size: the graph can end many times larger
			// than the sealed initial one it was first resolved from.
			pe.Q.SetThreshold(streamThreshold(sb.Entries()))
		}
	}
	sw.stop()
	return nil
}

// streamState is the per-PE delta-counting engine. It is single-threaded by
// design (the queue dispatches handlers only on this PE's own polls), with
// the per-batch parallelism living in Stage/Commit instead.
type streamState struct {
	sb         *graph.StreamBuilder
	n          uint64 // vertices: every ID in a record is below it
	n0, n1, n2 uint64
	ship       []uint64 // record scratch, reused across rows
	// The byte global-ID mark holding old(v) (as 1) and Δ(v) (as 2) of the
	// record being counted, n bytes. One mark serves received records and
	// local rows alike: see countStaged for why the two never nest.
	mark *graph.SplitMark
}

func newStreamState(sb *graph.StreamBuilder, n uint64) *streamState {
	return &streamState{sb: sb, n: n, mark: graph.NewSplitMark(int(n))}
}

// pair accumulates the category intersections for one effective-new edge
// with endpoint neighborhood splits (oa=old, da=Δ) and (ob, db). Symmetric
// in the two endpoints; the four lists are sorted, duplicate-free, and
// old/Δ are disjoint per endpoint, so each closing vertex lands in exactly
// one category.
func (s *streamState) pair(oa, da, ob, db []graph.Vertex) {
	s.n0 += graph.CountIntersect(oa, ob)
	s.n1 += graph.CountIntersect(oa, db) + graph.CountIntersect(da, ob)
	s.n2 += graph.CountIntersect(da, db)
}

// rowBitmap returns local row r's bitmap when a record of lv entries should
// be probed against it: the row has one and its old(r) is the longer side.
func (s *streamState) rowBitmap(r int32, lv int) graph.Bitset {
	if bm := s.sb.RowBitmap(r); bm != nil && lv < len(s.sb.Row(r)) {
		return bm
	}
	return nil
}

// countPartners counts the new edges (v,w), w ∈ ws, for a row v with
// neighborhood split (ov=old, dv=Δ), which the caller has stamped into the
// mark; every w is a local vertex.
func (s *streamState) countPartners(ov, dv, ws []graph.Vertex) {
	lv := len(ov) + len(dv)
	for _, w := range ws {
		r := int32(w - s.sb.First())
		ow, dw := s.sb.Row(r), s.sb.StagedRowOf(r)
		if bm := s.rowBitmap(r, lv); bm != nil {
			// old(w) is the longer side: the record probes its bitmap, and
			// only Δ(w) is left to probe the mark.
			s.n0 += graph.CountList(bm, ov)
			s.n1 += graph.CountList(bm, dv)
			ow = nil
		} else if graph.Skewed(lv, len(ow)+len(dw)) {
			s.pair(ov, dv, ow, dw)
			continue
		}
		o, d := s.mark.CountList(ow)
		s.n0 += o
		s.n1 += d
		o, d = s.mark.CountList(dw)
		s.n1 += o
		s.n2 += d
	}
}

// span returns the sub-slice of the ascending list inside [lo, hi).
func span(list []graph.Vertex, lo, hi graph.Vertex) []graph.Vertex {
	i, _ := slices.BinarySearch(list, lo)
	j := i
	for j < len(list) && list[j] < hi {
		j++
	}
	return list[i:j]
}

// handle processes one shipped record [v, |Δ(v)|, Δ(v)..., old(v)...]. The
// partners are the entries of Δ(v) this PE owns; the sender only ships here
// when one of them is below v, and then the whole range is (v is not in it).
// Stamping the record checks what checkRecord leaves: that Δ(v) and old(v)
// share no entry (the mark holds each ID once) and that neither names v, at
// one byte load per Δ(v) entry and one for v instead of a search each; a
// record that fails is a corrupt frame from src.
func (s *streamState) handle(src int, words []uint64) {
	dv, ov := s.checkRecord(src, words)
	if !s.mark.Stamp(ov, dv) || s.mark.Holds(words[0]) {
		s.mark.Unstamp()
		panic(&comm.CorruptFrameError{Src: src, Reason: fmt.Sprintf(
			"stream record of vertex %d: Δ(v) meets old(v), or a list names v", words[0])})
	}
	s.countPartners(ov, dv, span(dv, s.sb.First(), s.sb.Last()))
	s.mark.Unstamp()
}

// checkRecord splits a received record into Δ(v) and old(v) after checking,
// before anything is stamped or probed, what the kernels take on trust: a
// header that fits the record, IDs below n, and two strictly ascending
// lists. A record that fails is a corrupt frame from src.
func (s *streamState) checkRecord(src int, words []uint64) (dv, ov []graph.Vertex) {
	if len(words) < 2 || words[1] > uint64(len(words)-2) {
		panic(&comm.CorruptFrameError{Src: src, Reason: fmt.Sprintf(
			"stream record of %d words does not hold its header and Δ(v)", len(words))})
	}
	k := int(words[1])
	dv, ov = words[2:2+k], words[2+k:]
	if words[0] >= s.n || !ascendingBelow(dv, s.n) || !ascendingBelow(ov, s.n) {
		panic(&comm.CorruptFrameError{Src: src, Reason: fmt.Sprintf(
			"stream record of vertex %d: an ID out of range n=%d or lists not strictly ascending", words[0], s.n)})
	}
	return dv, ov
}

// ascendingBelow reports whether list is strictly ascending with every
// entry below n.
func ascendingBelow(list []graph.Vertex, n uint64) bool {
	if len(list) > 0 && list[len(list)-1] >= n {
		return false
	}
	for i := 1; i < len(list); i++ {
		if list[i] <= list[i-1] {
			return false
		}
	}
	return true
}

// record assembles row r's shipment in the send scratch.
func (s *streamState) record(r int32) []uint64 {
	dv := s.sb.StagedRowOf(r)
	s.ship = append(append(s.ship[:0], s.sb.First()+graph.Vertex(r), uint64(len(dv))), dv...)
	s.ship = append(s.ship, s.sb.Row(r)...)
	return s.ship
}

// countStaged processes every staged new edge exactly once: edge (v,w) is
// counted at the owner of min(v,w). Row v's ascending Δ(v) falls into
//
//	w < First      remote, below v: ship the row once per owning PE
//	First ≤ w < v  local: skip, counted when the loop reaches row w
//	v < w < Last   local: count here (all four lists are resident)
//	Last ≤ w       remote, above v: skip, w's owner ships its row to us
//
// in that order, which is what lets one mark serve both roles: a Send can
// overflow δ, flush, poll and run handle inline, and handle stamps the mark
// — but every Send of a row precedes its local partners, so the row's own
// stamp is never live across one (SplitMark.Stamp panics if that ordering
// is ever broken). A row's lists are disjoint by construction (Stage
// subtracts old(v) from Δ(v)), so its stamp needs no check. Records still
// buffered or in flight when the loop ends are the caller's Drain to
// deliver.
func (s *streamState) countStaged(pe *dist.PE, pt *part.Partition) {
	sb := s.sb
	first, last := sb.First(), sb.Last()
	for _, r := range sb.Staged() {
		dv := sb.StagedRowOf(r)
		if len(dv) == 0 {
			continue
		}
		i := 0
		if dv[0] < first {
			rec := s.record(r)
			for i < len(dv) && dv[i] < first {
				dst := pt.Rank(dv[i])
				pe.Q.Send(chNeighEdge, dst, rec)
				_, end := pt.Range(dst)
				for i < len(dv) && dv[i] < end {
					i++
				}
			}
		}
		if ws := span(dv[i:], first+graph.Vertex(r)+1, last); len(ws) > 0 {
			s.mark.Stamp(sb.Row(r), dv)
			s.countPartners(sb.Row(r), dv, ws)
			s.mark.Unstamp()
		}
	}
}
