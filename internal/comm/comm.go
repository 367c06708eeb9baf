package comm

import (
	"encoding/binary"
	"errors"
	"runtime"
	"time"

	"repro/internal/transport"
)

// Frame tags (word 0 of every frame). The low 16 bits carry the kind, the
// high 48 bits an epoch or round number, so early arrivals from the next
// collective or probe round are stashed instead of misinterpreted.
const (
	kindData uint64 = iota + 1
	kindProbe
	kindReply
	kindTerm
	kindBarrier
	kindRelease
	kindReduce
	kindBcast
	kindDense
	kindGroup
)

const kindMask = 0xffff

func tag(kind, epoch uint64) uint64 { return kind | epoch<<16 }

// tagOf extracts the demultiplexing tag from either frame shape: word 0 of a
// word frame, the first 8 little-endian bytes of a byte frame.
func tagOf(f transport.Frame) uint64 {
	if f.Bytes != nil {
		return binary.LittleEndian.Uint64(f.Bytes)
	}
	return f.Words[0]
}

// Comm wraps a transport endpoint with tag-based demultiplexing and metering.
// A PE is single-threaded (or funnels communication through one goroutine,
// like MPI's funneled mode), so Comm needs no internal locking.
type Comm struct {
	ep transport.Endpoint
	// waiter is ep's blocking receive, nil when it has none (see idle).
	waiter transport.Waiter
	// stash holds frames that arrived while the PE was waiting for a
	// different tag.
	stash map[uint64][]transport.Frame
	// epochs per collective kind keep successive collectives apart.
	epochs map[uint64]uint64
	// peers tracks distinct data-frame destinations for Metrics.Peers.
	peers map[int]struct{}
	// wordBufs is a free list of decoded-word buffers for the group
	// collectives (Group.Bcast/IBcast): receivers decode into recycled
	// capacity and hand it back via Group.Recycle, so the steady-state
	// exchange allocates nothing — the same discipline Queue keeps for its
	// pooled frames.
	wordBufs [][]uint64

	// Watchdog state (see SetDeadline): progress counts frames ever returned
	// by next; the stall bookkeeping turns a blocking primitive that sees no
	// new frames for longer than deadline into a typed panic instead of an
	// unbounded spin.
	deadline   time.Duration
	progress   int64
	stallMark  int64
	stallSince time.Time

	M Metrics
}

// New wraps an endpoint.
func New(ep transport.Endpoint) *Comm {
	w, _ := ep.(transport.Waiter)
	return &Comm{
		ep:     ep,
		waiter: w,
		stash:  make(map[uint64][]transport.Frame),
		epochs: make(map[uint64]uint64),
		peers:  make(map[int]struct{}),
	}
}

// parkInterval bounds one park in idle. Every condition a parked PE reacts
// to without a frame — the watchdog deadline, a peer condemned by Health,
// the runtime's abort flag — is therefore noticed at most this much later
// than a spinning PE would notice it.
const parkInterval = time.Millisecond

// idle is the wait step of every blocking primitive, taken after
// checkStalled found nothing to report. Over a transport that can block it
// parks until a frame may be pending (or parkInterval passes), which leaves
// the CPU to the goroutines that deliver frames; otherwise it yields.
func (c *Comm) idle() {
	if c.waiter != nil {
		c.waiter.Wait(parkInterval)
		return
	}
	runtime.Gosched()
}

// SetDeadline arms the communication watchdog: any blocking primitive (the
// termination detector inside Drain, every collective) that waits longer
// than d without receiving a single frame fails with a typed error — a
// *WatchdogError, or an *ErrPeerLost when the transport can name a dead peer
// — instead of spinning forever on traffic that will never arrive. d ≤ 0
// (the default) disables the deadline; transport peer-health verdicts are
// still surfaced while waiting either way.
func (c *Comm) SetDeadline(d time.Duration) { c.deadline = d }

// checkStalled is the wait-step guard shared by the termination detector and
// the collectives. Called only on iterations that found no frame, so its
// clock reads are confined to time the PE is idle anyway.
func (c *Comm) checkStalled(where string) {
	if h, ok := c.ep.(transport.HealthReporter); ok {
		if err := h.Health(); err != nil {
			var pd *transport.PeerDownError
			if errors.As(err, &pd) {
				panic(&ErrPeerLost{Rank: pd.Rank, Err: err})
			}
			panic(&ErrPeerLost{Rank: -1, Err: err})
		}
	}
	if c.deadline <= 0 {
		return
	}
	if c.progress != c.stallMark || c.stallSince.IsZero() {
		c.stallMark = c.progress
		c.stallSince = time.Now()
		return
	}
	if waited := time.Since(c.stallSince); waited > c.deadline {
		panic(&WatchdogError{Where: where, Waited: waited})
	}
}

// Rank returns this PE's rank.
func (c *Comm) Rank() int { return c.ep.Rank() }

// Size returns the number of PEs.
func (c *Comm) Size() int { return c.ep.Size() }

func (c *Comm) nextEpoch(kind uint64) uint64 {
	e := c.epochs[kind]
	c.epochs[kind] = e + 1
	return e
}

// sendData ships a word-framed data frame (dense exchanges) and meters it;
// word frames hit the wire uncompressed, so encoded equals raw bytes.
func (c *Comm) sendData(dst int, words []uint64) error {
	c.M.SentFrames++
	c.M.SentWords += int64(len(words))
	c.M.RawBytes += int64(8 * len(words))
	c.M.EncodedBytes += int64(8 * len(words))
	return c.ep.Send(dst, words)
}

// sendDataBytes ships a codec-encoded data frame. rawWords is the frame's
// pre-encoding size in machine words (tag + envelopes + payloads), which
// keeps SentWords — the paper's reported volume — codec-independent while
// EncodedBytes records what actually crossed the wire.
func (c *Comm) sendDataBytes(dst int, frame []byte, rawWords int) error {
	c.M.SentFrames++
	c.M.SentWords += int64(rawWords)
	c.M.RawBytes += int64(8 * rawWords)
	c.M.EncodedBytes += int64(len(frame))
	return c.ep.SendBytes(dst, frame)
}

// notePeer records a distinct queue-level destination. Only aggregated
// queue traffic counts: the dense collectives legitimately talk to every
// PE, while the grid-indirection claim is about the queue's fan-out.
func (c *Comm) notePeer(dst int) {
	if _, ok := c.peers[dst]; !ok {
		c.peers[dst] = struct{}{}
		c.M.Peers = int64(len(c.peers))
	}
}

// sendControl ships a control frame (probes, collectives); metered
// separately.
func (c *Comm) sendControl(dst int, words []uint64) error {
	c.M.ControlSent++
	return c.ep.Send(dst, words)
}

// next returns a pending frame whose tag satisfies match, consulting the
// stash first, then polling the transport and stashing mismatches. Returns
// ok=false when nothing matching is currently available.
func (c *Comm) next(match func(t uint64) bool) (transport.Frame, bool) {
	for t, fs := range c.stash {
		if match(t) && len(fs) > 0 {
			f := fs[0]
			if len(fs) == 1 {
				delete(c.stash, t)
			} else {
				c.stash[t] = fs[1:]
			}
			c.progress++
			return f, true
		}
	}
	for {
		f, ok := c.ep.Recv()
		if !ok {
			return transport.Frame{}, false
		}
		c.progress++
		t := tagOf(f)
		if match(t) {
			return f, true
		}
		c.stash[t] = append(c.stash[t], f)
	}
}

// wait blocks until a matching frame arrives, guarded by the communication
// watchdog: it polls, and between polls parks or yields (idle).
func (c *Comm) wait(match func(t uint64) bool) transport.Frame {
	for {
		if f, ok := c.next(match); ok {
			return f
		}
		c.checkStalled("collective")
		c.idle()
	}
}

// waitTag blocks until a frame with exactly tag t arrives.
func (c *Comm) waitTag(t uint64) transport.Frame {
	return c.wait(func(x uint64) bool { return x == t })
}

// waitTagIdle is waitTag with the blocked time metered into Metrics.IdleNs —
// the receive-side comm-wait the pipelined 2D exchange is built to hide. The
// fast path (frame already stashed or in the inbox) takes no clock reads.
func (c *Comm) waitTagIdle(t uint64) transport.Frame {
	if f, ok := c.next(func(x uint64) bool { return x == t }); ok {
		return f
	}
	t0 := time.Now()
	f := c.waitTag(t)
	c.M.IdleNs += time.Since(t0).Nanoseconds()
	return f
}

// getWordBuf pops a recycled decode buffer (nil when the free list is dry:
// the codec append grows it to working-set size once).
func (c *Comm) getWordBuf() []uint64 {
	if n := len(c.wordBufs); n > 0 {
		b := c.wordBufs[n-1]
		c.wordBufs = c.wordBufs[:n-1]
		return b
	}
	return nil
}

// recycleWordBuf returns a decode buffer to the free list.
func (c *Comm) recycleWordBuf(b []uint64) {
	if cap(b) > 0 {
		c.wordBufs = append(c.wordBufs, b[:0])
	}
}
