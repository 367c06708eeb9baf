package core

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/graph"
)

// The counting pipeline. Every DITRIC, CETRIC and TriC body counts through
// one overlapPipeline: emission stages (chunked row sweeps that may ship cut
// neighborhoods) followed by finish (drain to global quiescence), with the
// receive side — intersecting shipped neighborhoods against the receiver's
// A-lists — running wherever the schedule puts it. Config.Threads and
// Config.Overlap select that schedule; they do not select code:
//
//   - Threads == 1: no workers. Row chunks run on the PE goroutine and the
//     queue handlers intersect received records inline, inside whichever
//     poll dispatched them.
//   - Threads > 1 (the paper's hybrid mode, §IV-D): workers steal row
//     chunks — dynamic chunking plays the role of TBB work stealing, so no
//     cost-model prepartitioning is needed, as Green et al. observed — and
//     ship through the PE goroutine, which owns the queue (MPI's funneled
//     mode, the bottleneck the paper measures in Fig. 8). Received records
//     park on a per-PE steal deque with their decode arena pinned, and the
//     same workers drain it.
//   - Overlap == false (the barriered schedule): frames leave only when the
//     aggregation threshold δ overflows and in the final drain, and nothing
//     is polled or stolen between chunks, so local and global work stay
//     separated and the communication counts are deterministic.
//   - Overlap == true: shipments flush eagerly as row chunks complete
//     (Queue.FlushIfOver at a watermark far below δ), the network is polled
//     between chunks, and workers steal parked records between chunks —
//     global-phase intersections start before the emission finishes, and a
//     skew-loaded receive side is chewed through by every thread instead of
//     being serialized behind the local phase.
//
// In every schedule the termination detector (Queue.DrainWith) steals deque
// batches whenever it would otherwise idle-wait, and meters genuine idle
// time into Metrics.IdleNs. Counts are identical across schedules: every
// record is processed by the same recvRecord code against the same receiver
// structure, only at a different time and on a different goroutine. An
// approximate run (RunApproxCetric) is this pipeline too: its records carry
// Bloom filters instead of neighborhoods (see approx.go).

const hybridChunk = 128 // rows per stolen chunk

// overlapFlushWords is the eager flush watermark in words: low enough that
// shipments leave while the local phase still runs, high enough that frames
// stay worth their α cost. The aggregation threshold δ still bounds queue
// memory; this only moves flushes earlier.
const overlapFlushWords = 1 << 10

// overlapWatermark resolves the eager-flush watermark for aggregation
// threshold δ: min(overlapFlushWords, δ/2), floored at 1.
//
// The δ/2 clamp is load-bearing: DefaultThreshold floors δ
// at 1024 — exactly overlapFlushWords — so on tiny graphs (and explicit
// small -delta values) an unclamped watermark would sit at or above δ, and
// eager flushing would silently never fire before the overflow flush.
// Clamping to half of δ keeps the watermark strictly below the overflow
// boundary for every δ > 1.
func overlapWatermark(threshold int) int {
	return max(min(overlapFlushWords, threshold/2), 1)
}

// dequeBatch is how many parked records a worker steals per deque lock
// acquisition.
const dequeBatch = 32

// dequeHighWater is the backpressure bound on decoded, arena-pinned
// records, enforced at the handler: past it a received record is
// intersected inline on the funnel instead of parked (the Threads == 1
// behavior), so the deque can never hold more than the high-water mark plus
// one frame's records — resident decoded memory stays O(dequeHighWater),
// not O(total incoming traffic), and the queue's linear-memory guarantee
// survives the parking. The overlapped stage funnel additionally stops
// polling above the mark, preferring to leave frames codec-encoded in the
// transport and help drain.
const dequeHighWater = 1 << 12

// recvRecord is one received global-phase record parked on the steal deque.
// list aliases a pinned decode arena; release gives it back after the
// record has been processed.
type recvRecord struct {
	v, u    graph.Vertex // u is meaningful only for edge records
	list    []uint64     // A(v), or the filter A'(v) of an AMQ record
	release func()
	kind    uint8 // the channel it came on: chNeigh, chNeighEdge or chAMQ
}

// stealDeque is the per-PE queue of received records awaiting intersection,
// shared by the chunk-stealing workers, the funnel, and the termination
// detector's progress callback. It is a mutex-guarded growable ring: pushes
// come only from the funnel goroutine (inside handler dispatch), pops come
// from any worker in batches. Once the ring has grown to the peak backlog,
// steady-state push/pop allocates nothing (see
// BenchmarkStealDequeSteadyState and the CI allocation gate).
type stealDeque struct {
	mu       sync.Mutex
	nonEmpty sync.Cond
	buf      []recvRecord
	head     int
	n        int
	closed   bool
}

func newStealDeque() *stealDeque {
	dq := &stealDeque{}
	dq.nonEmpty.L = &dq.mu
	return dq
}

// push parks one record. Only the funnel goroutine pushes, from inside a
// queue handler; pushing after close is a bug in the drain ordering.
func (dq *stealDeque) push(r recvRecord) {
	dq.mu.Lock()
	if dq.closed {
		dq.mu.Unlock()
		panic("core: push on closed steal deque")
	}
	if dq.n == len(dq.buf) {
		dq.grow()
	}
	dq.buf[(dq.head+dq.n)%len(dq.buf)] = r
	dq.n++
	dq.mu.Unlock()
	dq.nonEmpty.Signal()
}

// grow doubles the ring (called with mu held).
func (dq *stealDeque) grow() {
	next := make([]recvRecord, max(64, 2*len(dq.buf)))
	for i := 0; i < dq.n; i++ {
		next[i] = dq.buf[(dq.head+i)%len(dq.buf)]
	}
	dq.buf = next
	dq.head = 0
}

// popBatch steals up to len(dst) records from the front. With wait set it
// blocks until records arrive or the deque is closed; either way a return
// of 0 with wait set means closed-and-empty, and 0 without wait just means
// empty right now. Popped ring slots are cleared so arenas don't stay
// pinned by stale references.
func (dq *stealDeque) popBatch(dst []recvRecord, wait bool) int {
	dq.mu.Lock()
	for dq.n == 0 {
		if dq.closed || !wait {
			dq.mu.Unlock()
			return 0
		}
		dq.nonEmpty.Wait()
	}
	k := min(len(dst), dq.n)
	for i := 0; i < k; i++ {
		j := (dq.head + i) % len(dq.buf)
		dst[i] = dq.buf[j]
		dq.buf[j] = recvRecord{}
	}
	dq.head = (dq.head + k) % len(dq.buf)
	dq.n -= k
	dq.mu.Unlock()
	return k
}

// size returns the current backlog (for the funnel's backpressure check).
func (dq *stealDeque) size() int {
	dq.mu.Lock()
	n := dq.n
	dq.mu.Unlock()
	return n
}

// close marks the deque complete (no further pushes) and wakes blocked
// poppers. Called after DrainWith returns, when global quiescence
// guarantees no handler can fire again.
func (dq *stealDeque) close() {
	dq.mu.Lock()
	dq.closed = true
	dq.mu.Unlock()
	dq.nonEmpty.Broadcast()
}

// globalFn processes one parked record into ws. DITRIC intersects against
// the full oriented A-lists; CETRIC against the contracted cut graph with
// type-3 classification, or, on an approximate run, probes the record's
// filter with the cut graph's lists.
type globalFn func(ws *countState, r recvRecord)

// drainBatch steals and processes up to one batch, releasing payload pins.
// Returns the number of records processed.
func drainBatch(dq *stealDeque, scratch []recvRecord, ws *countState, fn globalFn, wait bool) int {
	k := dq.popBatch(scratch, wait)
	for i := 0; i < k; i++ {
		fn(ws, scratch[i])
		if scratch[i].release != nil {
			scratch[i].release()
		}
		scratch[i] = recvRecord{}
	}
	return k
}

// installHandlers is the one place the shipment channels get their
// handlers. With workers, a record is parked on the deque with its decode
// arena pinned, so the funnel returns to polling immediately and any worker
// can pick the record up; past the high-water mark — and always without
// workers — the handler processes it inline instead. Inline processing is
// always legal: handlers only fire inside this PE's own polls, which every
// algorithm issues strictly after its receiver structure is ready.
// Neighbourhood and filter records are validated here, before any worker
// can see a malformed one.
func (op *overlapPipeline) installHandlers() {
	pe, lg := op.pe, op.state.lg
	park := func(r recvRecord) {
		if len(op.workers) == 0 || op.dq.size() >= dequeHighWater {
			op.fn(op.state, r)
			return
		}
		r.release = pe.Q.PinPayload()
		op.dq.push(r)
	}
	pe.Q.Handle(chNeigh, func(src int, words []uint64) {
		checkNeigh(lg, src, words, 1)
		park(recvRecord{v: words[0], list: words[1:], kind: chNeigh})
	})
	pe.Q.Handle(chNeighEdge, func(src int, words []uint64) {
		checkNeigh(lg, src, words, 2)
		park(recvRecord{v: words[0], u: words[1], list: words[2:], kind: chNeighEdge})
	})
	pe.Q.Handle(chDelta, op.state.handleDelta)
	if op.state.amq != nil {
		pe.Q.Handle(chAMQ, func(src int, words []uint64) {
			checkAMQ(src, words)
			park(recvRecord{v: words[0], list: words[2:], kind: chAMQ})
		})
		pe.Q.Handle(chDeltaF, op.state.handleDeltaEst)
	}
}

// checkNeigh validates a received neighbourhood record before it is parked:
// [v, A(v)...] on chNeigh (hdr 1) or [v, u, A(v)...] on chNeighEdge (hdr 2).
// It checks what the receive kernels take on trust: a header that fits, an
// A(v) strictly ascending below n, and v being a row here whenever the
// record names a local vertex (an entry of A(v); on chNeighEdge, u), since v
// is then a corner of every triangle the record closes. A record that fails
// is a corrupt frame from src.
func checkNeigh(lg *graph.LocalGraph, src int, rec []uint64, hdr int) {
	n := lg.Part.N()
	if len(rec) < hdr || !ascendingBelow(rec[hdr:], n) {
		panic(&comm.CorruptFrameError{Src: src, Reason: fmt.Sprintf(
			"neighbourhood record of %d words: no header, an ID out of range n=%d or a list not strictly ascending",
			len(rec), n)})
	}
	named := hdr == 2 && lg.IsLocal(rec[1])
	if list := rec[hdr:]; hdr == 1 {
		i, _ := slices.BinarySearch(list, lg.First)
		named = i < len(list) && lg.IsLocal(list[i])
	}
	if v := rec[0]; named && !lg.IsLocal(v) {
		if _, ok := lg.GhostRow(v); !ok {
			panic(&comm.CorruptFrameError{Src: src, Reason: fmt.Sprintf(
				"neighbourhood record of vertex %d names a local vertex, but %d is no row on PE %d", v, v, lg.Rank)})
		}
	}
}

// overlapPipeline coordinates one PE's counting phases: one or more
// emission stages followed by finish. With Threads > 1 it owns the worker
// states and the funnel; with Threads == 1 everything runs on the PE's
// single goroutine, which keeps the phase attribution exact.
type overlapPipeline struct {
	pe    *dist.PE
	sw    *stopwatch
	state *countState // funnel/main-goroutine state
	dq    *stealDeque
	fn    globalFn

	// overlap selects the overlapped schedule; flushWords is its eager-flush
	// watermark (overlapWatermark), resolved once per run. The barriered
	// schedule never flushes eagerly: its watermark is ∞.
	overlap    bool
	flushWords int

	workers   []*countState  // private per-worker states (threads > 1)
	scratches [][]recvRecord // per-worker steal scratch
	fscratch  []recvRecord   // funnel steal scratch

	overlapNs atomic.Int64 // receive work done during emission stages (pre-drain)
}

// newOverlapPipeline builds the pipeline for one counting run and installs
// its handlers. fn intersects one received record.
func newOverlapPipeline(pe *dist.PE, sw *stopwatch, lg *graph.LocalGraph, cfg Config,
	state *countState, fn globalFn) *overlapPipeline {
	op := &overlapPipeline{
		pe: pe, sw: sw, state: state, dq: newStealDeque(), fn: fn,
		overlap:    cfg.Overlap,
		flushWords: math.MaxInt,
		fscratch:   make([]recvRecord, dequeBatch),
	}
	if cfg.Overlap {
		op.flushWords = overlapWatermark(pe.Q.Threshold())
	}
	if cfg.Threads > 1 {
		op.workers = make([]*countState, cfg.Threads)
		op.scratches = make([][]recvRecord, cfg.Threads)
		for t := 0; t < cfg.Threads; t++ {
			op.workers[t] = newCountState(lg, cfg)
			op.workers[t].useAMQ(state.amq, state.amqOri)
			op.scratches[t] = make([]recvRecord, dequeBatch)
		}
	}
	op.installHandlers()
	return op
}

// stage runs one emission stage over rows [0, rows) under the named
// stopwatch phase. work processes one chunk into ws, shipping records
// either directly (sends == nil, no workers) or through the funnel.
// canSteal says whether the receiver structure is ready: a stage that
// cannot intersect yet (CETRIC's local stage runs before the contracted cut
// graph exists) never polls — incoming frames stay codec-encoded in the
// transport, so deferring costs no decoded-arena memory and the queue's
// O(δ) profile is untouched. Only the overlapped schedule acts on it; the
// barriered one never polls or steals between chunks anyway.
func (op *overlapPipeline) stage(phase string, rows int, canSteal bool,
	work func(ws *countState, lo, hi int, sends chan<- hybridSend)) {
	op.sw.phase(phase)
	steal := canSteal && op.overlap
	if len(op.workers) == 0 {
		op.stageSeq(phase, rows, steal, work)
	} else {
		op.stagePar(rows, steal, work)
	}
}

// stageSeq runs the chunks on the PE's only goroutine; with steal set it
// interleaves eager flushing and ingestion (handlers intersect inline)
// between them. The stopwatch switches between the emission phase and
// global/recv at chunk boundaries, so the per-phase walls are exact even
// though the work is interleaved.
func (op *overlapPipeline) stageSeq(phase string, rows int, steal bool,
	work func(ws *countState, lo, hi int, sends chan<- hybridSend)) {
	pe := op.pe
	for lo := 0; lo < rows; lo += hybridChunk {
		hi := min(lo+hybridChunk, rows)
		work(op.state, lo, hi, nil)
		if !steal {
			continue
		}
		pe.Q.FlushIfOver(op.flushWords)
		op.sw.phase(PhaseGlobalRecv)
		t0 := time.Now()
		if pe.Q.Poll() {
			op.overlapNs.Add(time.Since(t0).Nanoseconds())
		}
		op.sw.phase(phase)
	}
}

// stagePar fans the chunks out to the workers, which ship through the sends
// channel; the funnel forwards shipments to the queue. With steal set,
// workers also chew parked records between chunks, and the funnel flushes
// eagerly, polls the network (which parks records on the deque), and steals
// itself when it would otherwise wait. With steal unset the funnel only
// forwards: it blocks on the workers while incoming frames wait, still
// encoded, in the transport (an overflow poll inside Queue.Send may still
// park records; they wait for finish). The stage ends when every chunk is
// processed and every shipment has been handed to the queue — residual
// deque work is finish's job.
//
// Phase attribution is coarse here by design: receive work runs
// concurrently with emission across the pool, so it cannot be subtracted
// from the emission wall — the whole stage stays under the emission phase
// and the receive CPU time is surfaced as Metrics.OverlapNs instead
// (stageSeq, with one timeline, attributes exactly).
func (op *overlapPipeline) stagePar(rows int, steal bool,
	work func(ws *countState, lo, hi int, sends chan<- hybridSend)) {
	pe := op.pe
	var next atomic.Int64
	sends := make(chan hybridSend, 4*len(op.workers))
	var wg sync.WaitGroup
	for t := range op.workers {
		wg.Add(1)
		go func(ws *countState, scratch []recvRecord) {
			defer wg.Done()
			for {
				lo := int(next.Add(hybridChunk)) - hybridChunk
				if lo >= rows {
					return
				}
				hi := min(lo+hybridChunk, rows)
				work(ws, lo, hi, sends)
				if !steal {
					continue
				}
				// Between chunks, chew a bounded amount of parked global
				// work — bounded so local emission keeps flowing and the
				// deque never starves the senders.
				t0 := time.Now()
				stolen := 0
				for stolen < 4 && drainBatch(op.dq, scratch, ws, op.fn, false) > 0 {
					stolen++
				}
				if stolen > 0 {
					op.overlapNs.Add(time.Since(t0).Nanoseconds())
				}
			}
		}(op.workers[t], op.scratches[t])
	}
	go func() {
		wg.Wait()
		close(sends)
	}()
	// Abort path: when the funnel panics out of a transport operation (peer
	// loss, watchdog, a sibling's abort), keep consuming shipments so the
	// workers run out of chunks and exit instead of blocking on sends forever.
	defer func() {
		for range sends {
		}
	}()
	forward := func(s hybridSend) {
		pe.Q.Send(s.ch, s.dst, *s.payload)
		payloadPool.Put(s.payload)
		pe.Q.FlushIfOver(op.flushWords)
	}
	if !steal {
		for s := range sends {
			forward(s)
		}
		return
	}
	for {
		select {
		case s, ok := <-sends:
			if !ok {
				return
			}
			forward(s)
		default:
			// No shipment pending: ingest incoming frames (handlers park
			// records on the deque) unless the decoded backlog is past the
			// high-water mark — then leave frames encoded in the transport
			// and help the workers drain instead.
			if op.dq.size() < dequeHighWater && pe.Q.Poll() {
				continue
			}
			t0 := time.Now()
			if drainBatch(op.dq, op.fscratch, op.state, op.fn, false) > 0 {
				op.overlapNs.Add(time.Since(t0).Nanoseconds())
				continue
			}
			runtime.Gosched()
		}
	}
}

// finish drives the pipeline to completion: the workers block on the deque
// while the termination detector runs with a progress callback that steals
// deque batches too (so waiting for stragglers turns into useful work), the
// deque is closed once global quiescence is certain, and worker states
// merge into the PE's. Runs under global/recv; detector wait time is
// metered as IdleNs and split into overlap/idle by the stopwatch.
func (op *overlapPipeline) finish() {
	op.sw.phase(PhaseGlobalRecv)
	var wg sync.WaitGroup
	for t := range op.workers {
		wg.Add(1)
		go func(ws *countState, scratch []recvRecord) {
			defer wg.Done()
			for drainBatch(op.dq, scratch, ws, op.fn, true) > 0 {
			}
		}(op.workers[t], op.scratches[t])
	}
	func() {
		// Closed on every exit, an abort panicking out of the detector
		// included, so the workers never stay parked on the deque.
		defer func() {
			op.dq.close()
			wg.Wait()
		}()
		op.pe.Q.DrainWith(func() bool {
			// Drain the whole backlog, not one batch: the detector's polls
			// can decode frames faster than a lone batch per stall would
			// consume them (with workers running this just competes benignly).
			did := false
			for drainBatch(op.dq, op.fscratch, op.state, op.fn, false) > 0 {
				did = true
			}
			return did
		})
	}()
	for _, ws := range op.workers {
		op.state.merge(ws)
	}
	op.workers = op.workers[:0]
	op.pe.C.M.OverlapNs += op.overlapNs.Load()
}

// hybridSend is a deferred neighborhood shipment produced by a worker and
// executed by the funneled communication goroutine. payload points into a
// pooled buffer: Queue.Send copies it, so the funnel returns the buffer to
// payloadPool right after the send.
type hybridSend struct {
	dst     int
	ch      int
	payload *[]uint64
}

// payloadPool recycles the worker → funnel shipment buffers (the free-list
// counterpart of the queue's retained per-destination flush buffers): a
// worker checks a buffer out and fills it, the funnel goroutine checks it
// back in once Queue.Send has copied the record, so the steady-state local
// phase allocates no payload memory per shipment.
var payloadPool = sync.Pool{New: func() any { return new([]uint64) }}

func getPayload(capHint int) *[]uint64 {
	bp := payloadPool.Get().(*[]uint64)
	if cap(*bp) < capHint {
		*bp = make([]uint64, 0, capHint)
	} else {
		*bp = (*bp)[:0]
	}
	return bp
}

// shipper emits the row sweeps' shipments (ditricLocalRows,
// cetricGlobalRows): with a funnel (sends != nil) each record checks a
// buffer out of payloadPool and the funnel returns it after Queue.Send has
// copied; without one, a buffer owned by the shipper is reused directly
// because Queue.Send copies synchronously. Shippers recycle through
// shipperPool so the steady-state sweep allocates nothing.
type shipper struct {
	pe    *dist.PE
	sends chan<- hybridSend
	buf   []uint64 // reused across shipments on the sends == nil path
	rec   []uint64 // an approximate run's filter record, built once per row
}

var shipperPool = sync.Pool{New: func() any { return new(shipper) }}

func getShipper(pe *dist.PE, sends chan<- hybridSend) *shipper {
	sh := shipperPool.Get().(*shipper)
	sh.pe, sh.sends = pe, sends
	return sh
}

func (sh *shipper) put() {
	sh.pe, sh.sends = nil, nil
	shipperPool.Put(sh)
}

func (sh *shipper) ship(ch, dst int, head, av []uint64) {
	if sh.sends != nil {
		bp := getPayload(len(head) + len(av))
		*bp = append(append(*bp, head...), av...)
		sh.sends <- hybridSend{dst: dst, payload: bp, ch: ch}
		return
	}
	sh.buf = append(append(sh.buf[:0], head...), av...)
	sh.pe.Q.Send(ch, dst, sh.buf)
}
