package comm

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
)

// MaxChannels is the number of logical message channels a Queue multiplexes.
// Algorithms use separate channels for independent message types (e.g.
// neighborhood shipments vs. degree requests vs. LCC updates).
const MaxChannels = 8

// Handler processes one received record: src is the originating PE (not the
// proxy under indirection), words the record payload. words aliases a pooled
// decode arena that the queue reuses for the next record, so it is valid
// only during the call unless the handler pins it with Queue.PinPayload.
type Handler func(src int, words []uint64)

// Queue is the paper's dynamically buffered message queue (§IV-A): one wire
// frame under construction per next-hop destination, into which records are
// encoded as they are queued, a global threshold δ on the total buffered raw
// words, flush-all on overflow (each frame goes to the asynchronous
// transport; its hop takes a fresh pooled frame with its next record), and
// continuous polling for incoming messages.
//
// With a Grid attached it performs the paper's indirect message delivery
// (§IV-B): records are first shipped to a row proxy, which re-aggregates
// them in its own queue before the column hop, so the per-PE peer count
// drops to O(√p).
//
// Drain implements the asynchronous sparse all-to-all: it flushes, keeps
// processing (and forwarding) incoming records, and detects global
// quiescence with a coordinator-based four-counter termination protocol, so
// memory stays O(δ) regardless of the total traffic — the property the
// paper needs for its linear-memory guarantee.
type Queue struct {
	c         *Comm
	grid      *Grid // nil => direct delivery
	threshold int   // δ in words

	// frames holds, per next-hop rank, a transport.GetBuf byte frame that
	// starts with the 8-byte data tag (nil: no record queued) and the raw
	// words (envelopes + payloads) its records stand for. buffered is the
	// raw total over all hops, the quantity δ bounds.
	frames   []hopFrame
	buffered int
	handlers [MaxChannels]Handler
	codecs   [MaxChannels]Codec

	encScratch []byte // a record's encoded payload, staged: its length prefix precedes it

	// Decode arenas, recycled across frames. curArena is the arena of the
	// frame currently being dispatched (nil outside processData); handlers
	// that hand payload slices to other goroutines pin it via PinPayload.
	arenaMu   sync.Mutex
	arenaFree []*wordArena
	curArena  *wordArena

	// Termination counters (data frames only).
	sent int64
	recv int64

	round uint64 // coordinator probe round

	// epoch counts the Drains this queue has finished. Data, probe and
	// termination frames carry it in their tags, so a PE still inside Drain
	// k stashes what a peer already past it sends — the next phase's records
	// and detector rounds — instead of dispatching them to handlers or a
	// receiver structure that are not ready yet: back-to-back Drains need no
	// barrier between them.
	epoch uint64

	// idleAt marks the start of the current idle episode inside
	// Drain/DrainWith (zero when the PE last did useful work); episodes
	// accumulate into Metrics.IdleNs.
	idleAt time.Time
}

type hopFrame struct {
	b   []byte
	raw int
}

// wordArena is one reusable decode buffer. refs counts the frame dispatch in
// flight plus every pinned payload; the arena returns to the queue's free
// list when it drops to zero.
type wordArena struct {
	words   []uint64
	refs    atomic.Int32
	release func()
}

// maxPooledArenas caps the arena free list (a backstop; in steady state at
// most a handful are in flight).
const maxPooledArenas = 64

func (q *Queue) getArena() *wordArena {
	q.arenaMu.Lock()
	var ar *wordArena
	if k := len(q.arenaFree); k > 0 {
		ar = q.arenaFree[k-1]
		q.arenaFree = q.arenaFree[:k-1]
	}
	q.arenaMu.Unlock()
	if ar == nil {
		a := &wordArena{}
		a.release = func() {
			if a.refs.Add(-1) == 0 {
				q.arenaMu.Lock()
				if len(q.arenaFree) < maxPooledArenas {
					q.arenaFree = append(q.arenaFree, a)
				}
				q.arenaMu.Unlock()
			}
		}
		ar = a
	}
	ar.words = ar.words[:0]
	ar.refs.Store(1)
	return ar
}

var releaseNop = func() {}

// PinPayload extends the lifetime of the payload slice the current handler
// invocation received: handler payloads alias a pooled decode arena and are
// only valid during the handler call, unless pinned. It must be called from
// inside a handler; the returned release function (safe to call from any
// goroutine) gives the arena back once the payload is no longer needed.
// Payloads delivered locally (Send to self) alias the sender's buffer and
// need no pin; a no-op release is returned for them.
func (q *Queue) PinPayload() func() {
	ar := q.curArena
	if ar == nil {
		return releaseNop
	}
	ar.refs.Add(1)
	return ar.release
}

// envelope header: [finalDst, origSrc, channel, payloadLen]
const envHdr = 4

// NewQueue creates a message queue. threshold is δ in machine words; values
// ≤ 0 select a fallback of 1<<16 words — a backstop for direct Queue users
// only. The authoritative δ for algorithm runs is core's 2|E|/p (see
// core.DefaultThreshold), which keeps queue memory in O(|E_i|); every run
// driver computes it before the queue is built, so this fallback is never
// hit on the paper's code paths.
//
// Every channel starts on the Raw codec; use SetCodec to compress.
func NewQueue(c *Comm, threshold int, grid *Grid) *Queue {
	if threshold <= 0 {
		threshold = 1 << 16
	}
	q := &Queue{
		c:         c,
		grid:      grid,
		threshold: threshold,
		frames:    make([]hopFrame, c.Size()),
	}
	for ch := range q.codecs {
		q.codecs[ch] = Raw
	}
	return q
}

// Comm returns the underlying Comm (for metrics access).
func (q *Queue) Comm() *Comm { return q.c }

// Threshold returns the current aggregation threshold δ in words.
func (q *Queue) Threshold() int { return q.threshold }

// SetThreshold replaces the aggregation threshold δ (words; values < 1
// clamp to 1). Streaming runs resolve δ per PE only once the resident
// graph size is known — the queue is built before the first batch is
// ingested — and may retune it between batches. Changing δ only moves the
// overflow-flush boundary, never any record content, so it is safe at any
// point where this PE is not mid-append.
func (q *Queue) SetThreshold(words int) {
	if words < 1 {
		words = 1
	}
	q.threshold = words
}

// Handle registers the handler for a channel. Must be set before any record
// for that channel can arrive.
func (q *Queue) Handle(ch int, h Handler) {
	q.handlers[ch] = h
}

// SetCodec installs the wire codec for a channel. Sender and receiver decode
// with their own tables, so every PE of a run must install the same codec on
// the same channel before any record for it is in flight (alongside Handle,
// before the post-preprocessing barrier).
func (q *Queue) SetCodec(ch int, codec Codec) {
	if ch < 0 || ch >= MaxChannels {
		panic(fmt.Sprintf("comm: channel %d out of range", ch))
	}
	if codec == nil {
		codec = Raw
	}
	q.codecs[ch] = codec
}

// Send enqueues a record for dst on the given channel. Local destinations
// are delivered immediately without touching the network. The payload is
// encoded into the next hop's frame, so the caller may reuse it.
func (q *Queue) Send(ch, dst int, payload []uint64) {
	if ch < 0 || ch >= MaxChannels {
		panic(fmt.Sprintf("comm: channel %d out of range", ch))
	}
	me := q.c.Rank()
	q.c.M.PayloadWords += int64(len(payload))
	if dst == me {
		// Local dispatch passes the caller's slice, not a decode arena — if
		// this Send happens inside a handler (mid-processData), curArena must
		// not leak into the nested dispatch, or PinPayload would pin the
		// outer frame's arena without protecting this payload at all.
		prev := q.curArena
		q.curArena = nil
		q.dispatch(ch, me, payload)
		q.curArena = prev
		return
	}
	hop := dst
	if q.grid != nil {
		hop = q.grid.NextHop(me, dst, true)
	}
	q.append(hop, dst, me, ch, payload)
}

// append encodes a record into the frame for next hop — the envelope
// (finalDst, origSrc, channel, encoded byte length) as uvarints, then the
// payload in its channel's codec — and flushes all if δ is exceeded.
func (q *Queue) append(hop, finalDst, origSrc, ch int, payload []uint64) {
	enc := q.codecs[ch].AppendEncoded(q.encScratch[:0], payload)
	q.encScratch = enc[:0]
	f := &q.frames[hop]
	if need := envHdr*binary.MaxVarintLen64 + len(enc); cap(f.b)-len(f.b) < need {
		f.b = growFrame(f.b, need, q.dataTag())
	}
	f.b = binary.AppendUvarint(f.b, uint64(finalDst))
	f.b = binary.AppendUvarint(f.b, uint64(origSrc))
	f.b = binary.AppendUvarint(f.b, uint64(ch))
	f.b = binary.AppendUvarint(f.b, uint64(len(enc)))
	f.b = append(f.b, enc...)
	f.raw += envHdr + len(payload)
	q.buffered += envHdr + len(payload)
	if int64(q.buffered) > q.c.M.PeakBuffered {
		q.c.M.PeakBuffered = int64(q.buffered)
	}
	if q.buffered > q.threshold {
		q.Flush()
		// Overflow pressure: give receivers a chance to drain before we keep
		// producing, mirroring the paper's "block only if the second buffer
		// overflows" behaviour.
		q.Poll()
	}
}

// growFrame returns a frame with room for need more bytes: a new pooled one
// holding the data tag dt, or b moved to a pooled buffer of at least twice
// its capacity, its old array going back to the pool.
func growFrame(b []byte, need int, dt uint64) []byte {
	if b == nil {
		return binary.LittleEndian.AppendUint64(transport.GetBuf(8+need), dt)
	}
	nb := append(transport.GetBuf(max(2*cap(b), len(b)+need)), b...)
	transport.PutBuf(b)
	return nb
}

// Flush hands every non-empty frame, with its raw word count (tag word
// included), to the transport; ownership of the frame passes on with it.
func (q *Queue) Flush() {
	if q.buffered == 0 {
		return
	}
	for hop, f := range q.frames {
		if f.b == nil {
			continue
		}
		q.frames[hop] = hopFrame{}
		q.sent++
		q.c.M.Flushes++
		q.c.notePeer(hop)
		if err := q.c.sendDataBytes(hop, f.b, 1+f.raw); err != nil {
			raiseSendErr("flush", hop, err)
		}
	}
	q.buffered = 0
}

// FlushIfOver flushes every buffer when more than words words are buffered.
// It is the eager flush trigger of the overlapped pipeline: a watermark well
// below the aggregation threshold δ ships cut neighborhoods while the local
// phase is still producing, instead of holding them until the overflow or
// drain flush. Returns whether a flush happened.
func (q *Queue) FlushIfOver(words int) bool {
	if q.buffered <= words {
		return false
	}
	q.Flush()
	return true
}

// dataTag is the tag of this epoch's data frames.
func (q *Queue) dataTag() uint64 { return tag(kindData, q.epoch) }

// Poll processes all currently pending data frames of this epoch; it
// returns true if it processed at least one.
func (q *Queue) Poll() bool {
	any := false
	dt := q.dataTag()
	for {
		f, ok := q.c.next(func(t uint64) bool { return t == dt })
		if !ok {
			return any
		}
		q.processData(f)
		any = true
	}
}

// processData decodes a byte data frame record by record, dispatching
// records for this PE and re-queueing records to forward (proxy role — the
// payload is encoded again toward its final destination). Decoded payloads
// land in a pooled arena, rewound after every record while nothing is
// pinned: a handler that hands its slice to another goroutine must pin the
// arena with PinPayload. The frame bytes return to the transport buffer pool
// once the frame is fully decoded.
func (q *Queue) processData(f transport.Frame) {
	q.recv++
	q.c.M.RecvFrames++
	b := f.Bytes
	me := q.c.Rank()
	rawWords := int64(1) // tag word
	ar := q.getArena()
	prev := q.curArena
	pos := 8 // skip tag bytes
	for pos < len(b) {
		// Each Uvarint is checked before its length feeds the next slice
		// offset: an overflowed varint returns a negative length, and
		// b[pos+n:] with n < 0 would crash with an untyped runtime panic
		// instead of the typed corrupt-frame verdict.
		finalDst, n1 := binary.Uvarint(b[pos:])
		if n1 <= 0 {
			panic(&CorruptFrameError{Src: f.Src, Reason: "truncated envelope"})
		}
		origSrc, n2 := binary.Uvarint(b[pos+n1:])
		if n2 <= 0 {
			panic(&CorruptFrameError{Src: f.Src, Reason: "truncated envelope"})
		}
		ch, n3 := binary.Uvarint(b[pos+n1+n2:])
		if n3 <= 0 {
			panic(&CorruptFrameError{Src: f.Src, Reason: "truncated envelope"})
		}
		encLen, n4 := binary.Uvarint(b[pos+n1+n2+n3:])
		if n4 <= 0 {
			panic(&CorruptFrameError{Src: f.Src, Reason: "truncated envelope"})
		}
		pos += n1 + n2 + n3 + n4
		if ch >= MaxChannels || int(finalDst) >= q.c.Size() || pos+int(encLen) > len(b) {
			panic(&CorruptFrameError{Src: f.Src,
				Reason: fmt.Sprintf("invalid envelope (dst=%d, ch=%d, len=%d)", finalDst, ch, encLen)})
		}
		enc := b[pos : pos+int(encLen)]
		pos += int(encLen)
		start := len(ar.words)
		var err error
		ar.words, err = q.codecs[ch].AppendDecoded(ar.words, enc)
		if err != nil {
			panic(&CorruptFrameError{Src: f.Src, Reason: fmt.Sprintf("decode channel %d: %v", ch, err)})
		}
		// Cap the slice so a handler appending to its payload cannot
		// clobber records decoded after it.
		payload := ar.words[start:len(ar.words):len(ar.words)]
		rawWords += envHdr + int64(len(payload))
		if int(finalDst) == me {
			q.curArena = ar
			q.dispatch(int(ch), int(origSrc), payload)
			q.curArena = prev
		} else {
			// Proxy hop: re-aggregate toward the final destination.
			q.append(int(finalDst), int(finalDst), int(origSrc), int(ch), payload)
		}
		if ar.refs.Load() == 1 { // no payload of the arena is pinned
			ar.words = ar.words[:0]
		}
	}
	q.c.M.RecvWords += rawWords
	ar.release()
	transport.PutBuf(b)
}

func (q *Queue) dispatch(ch, src int, payload []uint64) {
	h := q.handlers[ch]
	if h == nil {
		panic(fmt.Sprintf("comm: no handler for channel %d on PE %d", ch, q.c.Rank()))
	}
	h(src, payload)
}

// Drain flushes all buffers and processes incoming traffic until global
// quiescence: no PE holds buffered records and every sent frame has been
// received and processed. Every PE of the cluster must call Drain, as often
// as the others; rank 0 coordinates the four-counter termination protocol.
// No PE returns before every PE has entered, and none dispatches a record a
// peer sent after its own return (see epoch), so a Drain also serves as the
// barrier between two phases.
func (q *Queue) Drain() { q.DrainWith(nil) }

// DrainWith is Drain with a progress callback for overlapped pipelines.
// Whenever the termination detector would otherwise idle-wait for a frame,
// it invokes progress (if non-nil), which should perform one unit of local
// work — e.g. steal a batch of received records off the overlap deque — and
// report whether it did anything. The four-counter protocol itself is
// unchanged: it already tolerates PEs entering the drain at different times
// and frames still in flight from overlapped eager flushes, because
// termination requires the global sent/recv counters to agree and stay
// stable across two probe rounds. progress must not send new records.
//
// Time spent with neither a frame to process nor progress work to do
// accumulates into Metrics.IdleNs — the per-rank skew signal.
func (q *Queue) DrainWith(progress func() bool) {
	q.Flush()
	if q.c.Rank() == 0 {
		q.drainCoordinator(progress)
	} else {
		q.drainWorker(progress)
	}
	q.epoch++
	q.noteBusy()
}

// noteIdle opens an idle episode (no-op when one is already open);
// noteBusy closes it into Metrics.IdleNs.
func (q *Queue) noteIdle() {
	if q.idleAt.IsZero() {
		q.idleAt = time.Now()
	}
}

func (q *Queue) noteBusy() {
	if !q.idleAt.IsZero() {
		q.c.M.IdleNs += time.Since(q.idleAt).Nanoseconds()
		q.idleAt = time.Time{}
	}
}

// stall is the detector's wait step: try the progress callback, and when it
// has nothing to do either, park or yield (Comm.idle) and account the time
// as idle — parked time included. The idle episode is closed *before* the
// callback runs so that stolen-work time is never attributed to IdleNs —
// only genuine waiting is. Each idle step also runs the communication
// watchdog, so a detector waiting on a dead peer fails with a typed error
// instead of waiting past the deadline.
func (q *Queue) stall(progress func() bool) {
	if progress != nil {
		q.noteBusy()
		if progress() {
			return
		}
	}
	q.noteIdle()
	q.c.checkStalled("drain")
	q.c.idle()
}

func (q *Queue) drainCoordinator(progress func() bool) {
	p := q.c.Size()
	dt := q.dataTag()
	replied := make([]bool, p)
	var prevSent, prevRecv int64 = -1, -1
	for {
		// Make progress on data and keep our own buffers empty. Any idle
		// episode ends here, before frame processing, so processing time is
		// never misattributed to IdleNs.
		q.noteBusy()
		q.Poll()
		q.Flush()

		// Probe round: collect (sent, recv) from everyone, once each — a
		// duplicated reply must not stand in for a missing one.
		round := q.round
		q.round++
		for dst := 1; dst < p; dst++ {
			if err := q.c.sendControl(dst, []uint64{tag(kindProbe, q.epoch), round}); err != nil {
				raiseSendErr("probe", dst, err)
			}
		}
		clear(replied)
		sumSent, sumRecv := q.sent, q.recv
		reply := tag(kindReply, round)
		for got := 1; got < p; {
			f, ok := q.c.next(func(t uint64) bool { return t == reply || t == dt })
			if !ok {
				q.stall(progress)
				continue
			}
			q.noteBusy() // the wait ended on arrival; processing is not idle
			if tagOf(f) == dt {
				q.processData(f)
				q.Flush()
				continue
			}
			if len(f.Words) != 3 {
				panic(&CorruptFrameError{Src: f.Src, Reason: fmt.Sprintf("%d-word probe reply", len(f.Words))})
			}
			if replied[f.Src] {
				continue
			}
			replied[f.Src] = true
			sumSent += int64(f.Words[1])
			sumRecv += int64(f.Words[2])
			got++
		}
		// Counters only grow, so two rounds with equal sums saw every PE's
		// counters unchanged in between: a consistent snapshot. Equal sums
		// there mean quiescence; more frames received than sent mean the
		// transport delivered one twice, which no later round can undo.
		if sumSent == prevSent && sumRecv == prevRecv {
			if sumRecv > sumSent {
				panic(fmt.Errorf("comm: drain counted %d data frames received against %d sent: a frame was delivered twice",
					sumRecv, sumSent))
			}
			if sumSent == sumRecv {
				for dst := 1; dst < p; dst++ {
					if err := q.c.sendControl(dst, []uint64{tag(kindTerm, q.epoch)}); err != nil {
						raiseSendErr("term", dst, err)
					}
				}
				return
			}
		}
		prevSent, prevRecv = sumSent, sumRecv
	}
}

func (q *Queue) drainWorker(progress func() bool) {
	dt, probe, term := q.dataTag(), tag(kindProbe, q.epoch), tag(kindTerm, q.epoch)
	for {
		f, ok := q.c.next(func(t uint64) bool { return t == dt || t == probe || t == term })
		if !ok {
			q.stall(progress)
			continue
		}
		q.noteBusy() // the wait ended on arrival; processing is not idle
		switch tagOf(f) {
		case dt:
			q.processData(f)
		case probe:
			if len(f.Words) != 2 {
				panic(&CorruptFrameError{Src: f.Src, Reason: fmt.Sprintf("%d-word probe", len(f.Words))})
			}
			// Flush before reporting, so buffered forwards are visible in the
			// counters (otherwise the protocol could terminate early).
			q.Flush()
			reply := []uint64{tag(kindReply, f.Words[1]), uint64(q.sent), uint64(q.recv)}
			if err := q.c.sendControl(0, reply); err != nil {
				raiseSendErr("reply", 0, err)
			}
		case term:
			return
		}
	}
}
