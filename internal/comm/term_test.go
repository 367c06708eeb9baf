package comm

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport"
)

// Termination-detection stress: handlers that trigger cascading sends,
// multi-hop chains, and forwarding proxies must all be drained before
// Drain returns anywhere.

func TestDrainWithCascadingSends(t *testing.T) {
	// Channel 0 records ping with TTL: each receipt with ttl>0 forwards to
	// the next PE. Total receipts = initial sends × (ttl+1).
	for _, indirect := range []bool{false, true} {
		for _, p := range []int{3, 5, 11, 13} {
			var received atomic.Int64
			runCluster(t, p, 32, indirect, func(rank int, c *Comm, q *Queue) {
				q.Handle(0, func(src int, words []uint64) {
					received.Add(1)
					ttl := words[0]
					if ttl > 0 {
						q.Send(0, (rank+1)%p, []uint64{ttl - 1})
					}
				})
				c.Barrier()
				// Every PE starts one chain of length p.
				q.Send(0, (rank+1)%p, []uint64{uint64(p - 1)})
				q.Drain()
			})
			want := int64(p * p)
			if received.Load() != want {
				t.Fatalf("p=%d indirect=%v: %d receipts, want %d", p, indirect, received.Load(), want)
			}
		}
	}
}

func TestDrainChainsAcrossPhases(t *testing.T) {
	// Two send/drain phases: records of phase 2 must never be processed
	// during phase 1's drain accounting in a way that breaks termination.
	const p = 6
	var phase1, phase2 atomic.Int64
	runCluster(t, p, 8, true, func(rank int, c *Comm, q *Queue) {
		q.Handle(0, func(int, []uint64) { phase1.Add(1) })
		q.Handle(1, func(int, []uint64) { phase2.Add(1) })
		for dst := 0; dst < p; dst++ {
			if dst != rank {
				q.Send(0, dst, []uint64{1})
			}
		}
		q.Drain()
		for dst := 0; dst < p; dst++ {
			if dst != rank {
				q.Send(1, dst, []uint64{1})
			}
		}
		q.Drain()
	})
	if phase1.Load() != p*(p-1) || phase2.Load() != p*(p-1) {
		t.Fatalf("receipts %d/%d, want %d each", phase1.Load(), phase2.Load(), p*(p-1))
	}
}

func TestDrainHeavySkewedTraffic(t *testing.T) {
	// All PEs hammer PE 0 (the hub pattern of the indirection motivation).
	const p = 9
	var hub atomic.Int64
	ms := runCluster(t, p, 16, true, func(rank int, c *Comm, q *Queue) {
		q.Handle(0, func(int, []uint64) { hub.Add(1) })
		c.Barrier()
		if rank != 0 {
			for i := 0; i < 500; i++ {
				q.Send(0, 0, []uint64{uint64(i)})
			}
		}
		q.Drain()
	})
	if hub.Load() != (p-1)*500 {
		t.Fatalf("hub got %d records, want %d", hub.Load(), (p-1)*500)
	}
	// With grid routing the hub's inbound frames arrive from its column and
	// row proxies only — fewer distinct sources than p-1 would imply.
	_ = ms
}

func TestDrainOnlyCoordinatorHasTraffic(t *testing.T) {
	// Rank 0 (the termination coordinator) is the only sender; workers must
	// still terminate.
	const p = 4
	var got atomic.Int64
	runCluster(t, p, 4, false, func(rank int, c *Comm, q *Queue) {
		q.Handle(0, func(int, []uint64) { got.Add(1) })
		if rank == 0 {
			for dst := 1; dst < p; dst++ {
				q.Send(0, dst, []uint64{1, 2})
			}
		}
		q.Drain()
	})
	if got.Load() != p-1 {
		t.Fatalf("got %d, want %d", got.Load(), p-1)
	}
}

func TestDrainManySmallPhases(t *testing.T) {
	// Rapid-fire drains with sparse traffic catch stale-round bugs in the
	// probe/reply protocol.
	const p = 5
	var total atomic.Int64
	runCluster(t, p, 4, false, func(rank int, c *Comm, q *Queue) {
		q.Handle(0, func(int, []uint64) { total.Add(1) })
		for round := 0; round < 20; round++ {
			if rank == round%p {
				q.Send(0, (rank+1)%p, []uint64{uint64(round)})
			}
			q.Drain()
		}
	})
	if total.Load() != 20 {
		t.Fatalf("total = %d, want 20", total.Load())
	}
}

// holdTermNet delays rank 0's termination frame to rank 2 by hold, so rank
// 1 leaves a Drain, and ships its next phase's records, while rank 2 is
// still inside it.
type holdTermNet struct {
	transport.Network
	hold time.Duration
}

func (n holdTermNet) Endpoint(rank int) (transport.Endpoint, error) {
	ep, err := n.Network.Endpoint(rank)
	if err != nil || rank != 0 {
		return ep, err
	}
	return holdTermEndpoint{Endpoint: ep, hold: n.hold}, nil
}

type holdTermEndpoint struct {
	transport.Endpoint
	hold time.Duration
}

func (e holdTermEndpoint) Send(dst int, words []uint64) error {
	if dst == 2 && words[0]&0xffff == kindTerm {
		time.Sleep(e.hold)
	}
	return e.Endpoint.Send(dst, words)
}

// TestDrainHoldsNextPhaseRecords: a PE still inside Drain does not dispatch
// a record a peer sent after its own Drain returned. Rank 2 installs the
// second phase's handler only once its first Drain is over, as the degree
// rounds and the counting engines do; its first Drain sees rank 1's
// second-phase record before its termination frame, and must leave it for
// the second Drain.
func TestDrainHoldsNextPhaseRecords(t *testing.T) {
	const p = 3
	net := holdTermNet{Network: transport.NewChanNetwork(p), hold: 50 * time.Millisecond}
	defer net.Close()
	var got [p]atomic.Int64
	runCommsOn(t, net, p, func(rank int, c *Comm) {
		q := NewQueue(c, 0, nil)
		q.Drain()
		q.Handle(1, func(src int, words []uint64) { got[rank].Add(int64(words[0])) })
		if rank == 1 {
			q.Send(1, 2, []uint64{7})
			q.Flush()
		}
		q.Drain()
	})
	if got[2].Load() != 7 {
		t.Fatalf("rank 2 received %d, want 7", got[2].Load())
	}
}

// dupNet hands out endpoints whose rank-1 side delivers its first byte
// frame twice, as a faulty transport might.
type dupNet struct {
	transport.Network
	duped atomic.Bool
}

func (n *dupNet) Endpoint(rank int) (transport.Endpoint, error) {
	ep, err := n.Network.Endpoint(rank)
	if err != nil || rank != 1 {
		return ep, err
	}
	return dupEndpoint{Endpoint: ep, n: n}, nil
}

type dupEndpoint struct {
	transport.Endpoint
	n *dupNet
}

func (e dupEndpoint) SendBytes(dst int, b []byte) error {
	if e.n.duped.CompareAndSwap(false, true) {
		if err := e.Endpoint.SendBytes(dst, append(transport.GetBuf(len(b)), b...)); err != nil {
			return err
		}
	}
	return e.Endpoint.SendBytes(dst, b)
}

// TestDrainRejectsDuplicatedFrame: a data frame delivered twice leaves more
// frames received than sent for good. The detector's probe rounds keep
// frames flowing, so the watchdog alone would never fire; the coordinator
// must fail the Drain instead of probing forever, and the workers, probed no
// more, then stop on their watchdog.
func TestDrainRejectsDuplicatedFrame(t *testing.T) {
	const p = 3
	net := &dupNet{Network: transport.NewChanNetwork(p)}
	defer net.Close()
	errs := make([]any, p)
	runCommsOn(t, net, p, func(rank int, c *Comm) {
		defer func() { errs[rank] = recover() }()
		c.SetDeadline(200 * time.Millisecond)
		q := NewQueue(c, 0, nil)
		q.Handle(0, func(int, []uint64) {})
		if rank == 1 {
			q.Send(0, 2, []uint64{1})
		}
		q.Drain()
	})
	if err, ok := errs[0].(error); !ok || !strings.Contains(err.Error(), "delivered twice") {
		t.Fatalf("coordinator: recovered %v, want the duplicate-delivery verdict", errs[0])
	}
	for rank := 1; rank < p; rank++ {
		if _, ok := errs[rank].(*WatchdogError); !ok {
			t.Fatalf("rank %d: recovered %v, want a *WatchdogError", rank, errs[rank])
		}
	}
}
