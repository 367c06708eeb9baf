package core

import (
	"fmt"
	"sync"
	"time"

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
// the global sum, since per-PE shares need not be divisible. Intersections
// run in global-ID space with the adaptive merge/gallop kernels: degree
// orientation is unstable under inserts (an insert can flip an edge's
// direction and would force re-orientation per batch), so the delta engine
// deliberately stays unoriented; double counting cannot occur because every
// new edge is processed exactly once, at the owner of its smaller endpoint,
// with cut pairs shipped over the queue exactly like the one-shot global
// phase ships cut neighborhoods.

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
// graph.FromEdges drops them.
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
		return nil, fmt.Errorf("core: streaming supports the DITRIC/CETRIC variants, not %s", algo)
	}
	cfg = pl.cfg

	// The feeder scatters one batch at a time and blocks until every PE has
	// taken its slice (channel capacity 1 ⇒ at most two batches of scatter
	// slices are live), so driver-side memory stays O(batch), not O(|E|).
	// abortCh breaks the feed loop on both sides when any PE fails: a PE
	// blocked on its feed channel sits outside the transport, where the
	// runtime's abort flag could never reach it.
	feeds := make([]chan feedItem, cfg.P)
	for i := range feeds {
		feeds[i] = make(chan feedItem, 1)
	}
	abortCh := make(chan struct{})
	var abortOnce sync.Once
	abort := func() { abortOnce.Do(func() { close(abortCh) }) }
	go func() {
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
		sr.Deltas = append(sr.Deltas, d)
		sr.Count += d
	}
	res.Count = sr.Count
	return sr, nil
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
		// SealRelease frees each one as it is copied, keeping the streaming
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
		// No insert batches anywhere (see above): skip the stream handler
		// installation and its barrier entirely — every PE takes this exit,
		// so no PE waits on the barrier below.
		sw.stop()
		return nil
	}

	// The initial count is globally quiescent here (the bodies end in
	// Drain), so re-registering chNeighEdge cannot race an in-flight
	// one-shot record; the barrier below guarantees every PE has its stream
	// handler installed before any PE can send the first staged record.
	ss := &streamState{sb: sb}
	pe.Q.Handle(chNeighEdge, ss.handle)
	pe.C.Barrier()

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
		// Drain (inside countStaged) reached global data quiescence for this
		// batch; the barrier additionally orders batches: no PE can stage —
		// let alone ship — batch t+1 records before every PE has finished
		// counting batch t, and incoming records only dispatch during this
		// PE's own polls, which resume after its own t+1 staging.
		pe.C.Barrier()
		so.tuples = append(so.tuples, [3]uint64{ss.n0, ss.n1, ss.n2})
		ss.n0, ss.n1, ss.n2 = 0, 0, 0
		sw.phase(PhaseStreamCommit)
		sb.Commit(cfg.Threads)
	}
	sw.stop()
	return nil
}

// streamState is the per-PE delta-counting engine. It is single-threaded by
// design (the queue dispatches handlers only on this PE's own polls), with
// the per-batch parallelism living in Stage/Commit instead.
type streamState struct {
	sb         *graph.StreamBuilder
	n0, n1, n2 uint64
	ship       []uint64 // send scratch, reused across records
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

// handle processes one shipped record [v, w, |Δ(v)|, Δ(v)..., old(v)...]:
// the sender owns v, this PE owns w < v, and the pair is counted here.
func (s *streamState) handle(_ int, words []uint64) {
	k := int(words[2])
	dv, ov := words[3:3+k], words[3+k:]
	r := int32(words[1] - s.sb.First())
	s.pair(s.sb.Row(r), s.sb.StagedRowOf(r), ov, dv)
}

// countStaged processes every staged new edge exactly once: edge (v,w) is
// counted at the owner of min(v,w). Iterating row v's staged Δ:
//
//	w > v, w local  → count inline (all four lists are resident here)
//	w > v, w remote → skip: w's owner has (w,v) staged with v < w and ships
//	w < v, w local  → skip: counted when the loop reaches row w
//	w < v, w remote → ship [v, w, Δ(v), old(v)] to w's owner
//
// Both owners of a cut edge stage it (the scatter gives edges to both
// sides, and resident rows stay symmetric across PEs by induction), so
// every cut pair is shipped exactly once and processed exactly once. The
// closing Drain reaches global data quiescence for the batch.
func (s *streamState) countStaged(pe *dist.PE, pt *part.Partition) {
	sb := s.sb
	first, last := sb.First(), sb.Last()
	for _, r := range sb.Staged() {
		dv := sb.StagedRowOf(r)
		if len(dv) == 0 {
			continue
		}
		v := first + graph.Vertex(r)
		ov := sb.Row(r)
		for _, w := range dv {
			local := w >= first && w < last
			switch {
			case w > v && local:
				rw := int32(w - first)
				s.pair(ov, dv, sb.Row(rw), sb.StagedRowOf(rw))
			case w < v && !local:
				s.ship = append(append(s.ship[:0], v, w, uint64(len(dv))), dv...)
				s.ship = append(s.ship, ov...)
				pe.Q.Send(chNeighEdge, pt.Rank(w), s.ship)
			}
		}
	}
	pe.Q.Drain()
}
