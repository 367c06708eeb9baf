// Package chaos is the fault-injection harness: a transport.Network wrapper
// that injects deterministic, seeded faults between the communication layer
// and any real transport, so every distributed failure mode — frame drop,
// delay, duplication, corruption, peer crash at operation N, network
// partition — is reproducible in CI from a seed instead of requiring flaky
// real-world failures.
//
// Faults are decided per frame from (seed, sender rank, sender sequence
// number): the communication layer above is single-threaded per PE, so each
// sender's frame sequence is deterministic and the same seed injects the
// same faults into the same frames on every run. A Plan with all faults
// disabled is a transparent pass-through — runs behind it are required (and
// tested) to produce results identical to the bare transport.
package chaos

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
)

// Plan scripts the faults. The zero value injects nothing.
type Plan struct {
	// Seed drives every per-frame fault decision.
	Seed uint64

	// Per-frame fault probabilities in [0,1]. Faults are decided
	// independently per frame in the order drop, duplicate, corrupt, delay;
	// a dropped frame is gone (no later fault applies). CorruptProb hits
	// byte frames only: word frames carry control traffic alone, which has
	// no codec layer to mis-decode, while every data frame (queue records,
	// the ghost-degree rounds among them, and TK2D's block broadcasts) is a
	// codec-encoded byte frame.
	DropProb    float64
	DupProb     float64
	CorruptProb float64
	DelayProb   float64
	// Delay is how long a delayed frame is withheld from the receiver.
	Delay time.Duration

	// CrashRank, with CrashAfter > 0, crashes that rank's endpoint after its
	// CrashAfter-th transport operation (sends and receive polls both
	// count). CrashPanic selects the flavor: true panics a *CrashError out
	// of the operation (a process dying mid-call — exercises the runtime's
	// abort propagation); false turns the endpoint into a silent black hole
	// (sends vanish, receives return nothing — exercises the survivors'
	// peer-loss detection).
	CrashRank  int
	CrashAfter int
	CrashPanic bool

	// Partition splits the ranks into isolated groups: frames crossing a
	// group boundary are dropped silently, exactly like a switch failure.
	// Ranks not listed in any group form one extra implicit group.
	Partition [][]int

	// DetectAfter is the simulated failure-detection latency: how long after
	// a silent crash (or the first partition-dropped frame) the injector's
	// Health() starts condemning the unreachable peer, standing in for the
	// TCP transport's heartbeat timeout. 0 detects immediately; negative
	// never detects, forcing the layers above onto their watchdog deadline.
	DetectAfter time.Duration
}

// Stats counts injected faults across the whole network.
type Stats struct {
	Dropped        int64
	Duplicated     int64
	Corrupted      int64
	Delayed        int64
	PartitionDrops int64
	Crashes        int64
}

// CrashError is the panic value of a scripted CrashPanic crash.
type CrashError struct {
	Rank int
	Op   int64
}

func (e *CrashError) Error() string {
	return fmt.Sprintf("chaos: injected crash of rank %d at transport op %d", e.Rank, e.Op)
}

// Network wraps an inner transport network with the fault plan.
type Network struct {
	inner transport.Network
	plan  Plan
	group map[int]int // rank -> partition group; empty when no partition

	mu  sync.Mutex
	eps map[int]*Endpoint

	crashed     atomic.Bool
	crashedAt   atomic.Int64 // unix nanos of the silent crash
	partitionAt atomic.Int64 // unix nanos of the first partition drop

	dropped        atomic.Int64
	duplicated     atomic.Int64
	corrupted      atomic.Int64
	delayed        atomic.Int64
	partitionDrops atomic.Int64
	crashes        atomic.Int64
}

// Wrap builds the chaos network over inner.
func Wrap(inner transport.Network, plan Plan) *Network {
	n := &Network{
		inner: inner,
		plan:  plan,
		group: make(map[int]int),
		eps:   make(map[int]*Endpoint),
	}
	for g, ranks := range plan.Partition {
		for _, r := range ranks {
			n.group[r] = g
		}
	}
	return n
}

// Stats snapshots the injected-fault counters.
func (n *Network) Stats() Stats {
	return Stats{
		Dropped:        n.dropped.Load(),
		Duplicated:     n.duplicated.Load(),
		Corrupted:      n.corrupted.Load(),
		Delayed:        n.delayed.Load(),
		PartitionDrops: n.partitionDrops.Load(),
		Crashes:        n.crashes.Load(),
	}
}

// groupOf maps a rank to its partition group (unlisted ranks share the
// implicit extra group).
func (n *Network) groupOf(rank int) int {
	if g, ok := n.group[rank]; ok {
		return g
	}
	return len(n.plan.Partition)
}

// severed reports whether src→dst traffic crosses a partition boundary.
func (n *Network) severed(src, dst int) bool {
	if len(n.plan.Partition) == 0 {
		return false
	}
	return n.groupOf(src) != n.groupOf(dst)
}

// Endpoint returns (creating on first use) the chaos wrapper for rank. It is
// a transport.Waiter exactly when the inner endpoint is one.
func (n *Network) Endpoint(rank int) (transport.Endpoint, error) {
	ep, err := n.endpoint(rank)
	if err != nil {
		return nil, err
	}
	if w, ok := ep.inner.(transport.Waiter); ok {
		return waitingEndpoint{Endpoint: ep, w: w}, nil
	}
	return ep, nil
}

func (n *Network) endpoint(rank int) (*Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if ep, ok := n.eps[rank]; ok {
		return ep, nil
	}
	inner, err := n.inner.Endpoint(rank)
	if err != nil {
		return nil, err
	}
	ep := &Endpoint{inner: inner, n: n, rank: rank}
	n.eps[rank] = ep
	return ep, nil
}

// Close closes the inner network and releases delayed frames.
func (n *Network) Close() error {
	err := n.inner.Close()
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, ep := range n.eps {
		ep.dmu.Lock()
		for _, d := range ep.delayed {
			transport.PutBuf(d.f.Bytes)
		}
		ep.delayed = nil
		ep.dmu.Unlock()
	}
	return err
}

// delayedFrame is a frame withheld from its receiver until due.
type delayedFrame struct {
	due time.Time
	f   transport.Frame
}

// Endpoint is one PE's fault-injecting attachment.
type Endpoint struct {
	inner transport.Endpoint
	n     *Network
	rank  int
	seq   atomic.Uint64 // frames offered for sending (deterministic per rank)
	ops   atomic.Int64  // transport operations, for the crash trigger

	dmu     sync.Mutex
	delayed []delayedFrame
}

// Rank returns this PE's rank.
func (e *Endpoint) Rank() int { return e.inner.Rank() }

// Size returns the number of PEs.
func (e *Endpoint) Size() int { return e.inner.Size() }

// splitmix64 is the per-decision hash: decorrelated streams come from
// distinct salt constants.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// roll returns a deterministic uniform [0,1) draw for this frame and salt.
func (e *Endpoint) roll(seq uint64, salt uint64) float64 {
	h := splitmix64(e.n.plan.Seed ^ uint64(e.rank)<<40 ^ seq<<8 ^ salt)
	return float64(h>>11) / float64(1<<53)
}

const (
	saltDrop = iota + 1
	saltDup
	saltCorrupt
	saltDelay
)

// crashed reports whether this endpoint is the scripted crash victim and the
// trigger has fired; it also fires the trigger.
func (e *Endpoint) crashStep() bool {
	p := &e.n.plan
	if p.CrashAfter <= 0 || e.rank != p.CrashRank {
		return false
	}
	op := e.ops.Add(1)
	if e.n.crashed.Load() {
		return true
	}
	if op < int64(p.CrashAfter) {
		return false
	}
	if e.n.crashed.CompareAndSwap(false, true) {
		e.n.crashes.Add(1)
		e.n.crashedAt.Store(time.Now().UnixNano())
		if p.CrashPanic {
			panic(&CrashError{Rank: e.rank, Op: op})
		}
	}
	return true
}

// Send applies the fault plan to a word frame.
func (e *Endpoint) Send(dst int, words []uint64) error {
	if e.crashStep() {
		return nil // silent crash: the send vanishes
	}
	if dst == e.rank {
		return e.inner.Send(dst, words)
	}
	if e.n.severed(e.rank, dst) {
		e.n.partitionDrops.Add(1)
		e.n.partitionAt.CompareAndSwap(0, time.Now().UnixNano())
		return nil
	}
	seq := e.seq.Add(1) - 1
	if e.roll(seq, saltDrop) < e.n.plan.DropProb {
		e.n.dropped.Add(1)
		return nil
	}
	if e.roll(seq, saltDup) < e.n.plan.DupProb {
		e.n.duplicated.Add(1)
		dup := append([]uint64(nil), words...)
		if err := e.deliverWords(dst, dup, seq); err != nil {
			return err
		}
	}
	return e.deliverWords(dst, words, seq)
}

func (e *Endpoint) deliverWords(dst int, words []uint64, seq uint64) error {
	if e.roll(seq, saltDelay) < e.n.plan.DelayProb {
		e.n.delayed.Add(1)
		return e.holdFrame(dst, transport.Frame{Src: e.rank, Words: words})
	}
	return e.inner.Send(dst, words)
}

// SendBytes applies the fault plan to a byte frame.
func (e *Endpoint) SendBytes(dst int, b []byte) error {
	if e.crashStep() {
		transport.PutBuf(b) // ownership transferred; the send vanishes
		return nil
	}
	if dst == e.rank {
		return e.inner.SendBytes(dst, b)
	}
	if e.n.severed(e.rank, dst) {
		e.n.partitionDrops.Add(1)
		e.n.partitionAt.CompareAndSwap(0, time.Now().UnixNano())
		transport.PutBuf(b)
		return nil
	}
	seq := e.seq.Add(1) - 1
	if e.roll(seq, saltDrop) < e.n.plan.DropProb {
		e.n.dropped.Add(1)
		transport.PutBuf(b)
		return nil
	}
	if e.roll(seq, saltCorrupt) < e.n.plan.CorruptProb && len(b) > 9 {
		// Corrupt past the 8-byte frame tag: the receiver's envelope decoder
		// hits an invalid uvarint run and rejects the frame with a typed
		// error — corruption is *detected*, never silently mis-decoded.
		e.n.corrupted.Add(1)
		end := len(b)
		if end > 8+12 {
			end = 8 + 12
		}
		for i := 8; i < end; i++ {
			b[i] = 0xFF
		}
	}
	if e.roll(seq, saltDup) < e.n.plan.DupProb {
		e.n.duplicated.Add(1)
		dup := transport.GetBuf(len(b))[:len(b)]
		copy(dup, b)
		if err := e.deliverBytes(dst, dup, seq); err != nil {
			return err
		}
	}
	return e.deliverBytes(dst, b, seq)
}

func (e *Endpoint) deliverBytes(dst int, b []byte, seq uint64) error {
	if e.roll(seq, saltDelay) < e.n.plan.DelayProb {
		e.n.delayed.Add(1)
		return e.holdFrame(dst, transport.Frame{Src: e.rank, Bytes: b})
	}
	return e.inner.SendBytes(dst, b)
}

// holdFrame parks a frame at the destination endpoint until its delay
// expires; the receiver's Recv releases due frames.
func (e *Endpoint) holdFrame(dst int, f transport.Frame) error {
	ep, err := e.n.endpoint(dst)
	if err != nil {
		transport.PutBuf(f.Bytes)
		return err
	}
	ep.dmu.Lock()
	ep.delayed = append(ep.delayed, delayedFrame{due: time.Now().Add(e.n.plan.Delay), f: f})
	ep.dmu.Unlock()
	return nil
}

// Recv returns the next pending frame: due delayed frames first (in hold
// order, which is due order: every frame is held for the same Delay), then
// the inner transport's inbox.
func (e *Endpoint) Recv() (transport.Frame, bool) {
	if e.crashStep() {
		return transport.Frame{}, false // silent crash: hears nothing
	}
	e.dmu.Lock()
	if len(e.delayed) > 0 && time.Now().After(e.delayed[0].due) {
		f := e.delayed[0].f
		e.delayed = e.delayed[1:]
		e.dmu.Unlock()
		return f, true
	}
	e.dmu.Unlock()
	return e.inner.Recv()
}

// waitingEndpoint is an Endpoint over an inner transport.Waiter.
type waitingEndpoint struct {
	*Endpoint
	w transport.Waiter
}

// Wait parks on the inner endpoint, but no later than the earliest held
// frame falls due: a delayed frame reaches Recv without the inner transport
// ever seeing it, so nothing else would wake a parked receiver for it.
func (e waitingEndpoint) Wait(d time.Duration) {
	e.dmu.Lock()
	if len(e.delayed) > 0 {
		if due := time.Until(e.delayed[0].due); due < d {
			d = due
		}
	}
	e.dmu.Unlock()
	if d <= 0 {
		return
	}
	e.w.Wait(d)
}

// Health condemns peers the fault plan has made unreachable — the scripted
// silent crash and partition, each after the plan's detection latency — and
// otherwise defers to the inner transport's own health verdict. It
// implements transport.HealthReporter.
func (e *Endpoint) Health() error {
	p := &e.n.plan
	if p.DetectAfter >= 0 {
		if e.n.crashed.Load() && !p.CrashPanic && e.rank != p.CrashRank {
			if at := e.n.crashedAt.Load(); at != 0 && time.Since(time.Unix(0, at)) >= p.DetectAfter {
				return &transport.PeerDownError{Rank: p.CrashRank, Reason: "chaos: injected crash"}
			}
		}
		if at := e.n.partitionAt.Load(); at != 0 && time.Since(time.Unix(0, at)) >= p.DetectAfter {
			// Condemn the first rank across the boundary from this PE.
			for r := 0; r < e.Size(); r++ {
				if e.n.severed(e.rank, r) {
					return &transport.PeerDownError{Rank: r, Reason: "chaos: network partition"}
				}
			}
		}
	}
	if h, ok := e.inner.(transport.HealthReporter); ok {
		return h.Health()
	}
	return nil
}

// Close closes the inner endpoint.
func (e *Endpoint) Close() error { return e.inner.Close() }
