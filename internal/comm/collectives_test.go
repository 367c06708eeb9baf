package comm

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport"
)

func runComms(t *testing.T, p int, body func(rank int, c *Comm)) {
	t.Helper()
	net := transport.NewChanNetwork(p)
	defer net.Close()
	runCommsOn(t, net, p, body)
}

// runCommsOn runs body on p ranks of net, one goroutine each.
func runCommsOn(t *testing.T, net transport.Network, p int, body func(rank int, c *Comm)) {
	t.Helper()
	var wg sync.WaitGroup
	for rank := 0; rank < p; rank++ {
		ep, err := net.Endpoint(rank)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(rank int, ep transport.Endpoint) {
			defer wg.Done()
			body(rank, New(ep))
		}(rank, ep)
	}
	wg.Wait()
}

func TestBarrierSynchronizes(t *testing.T) {
	const p = 8
	var before, violated atomic.Int64
	runComms(t, p, func(rank int, c *Comm) {
		before.Add(1)
		c.Barrier()
		if before.Load() != p {
			violated.Add(1)
		}
	})
	if violated.Load() > 0 {
		t.Fatal("some PE passed the barrier before all entered")
	}
}

// TestCollectiveWaitsAreIdle: rank 0 enters each collective 100 ms late.
// Every other rank's wait for it is metered into IdleNs (≥ 50 ms per
// collective), while rank 0, whose frames are already there, meters less
// than 50 ms. The bounds are coarse so a loaded host cannot flake them. An
// idle Queue.Drain is on the list because it is the wait of the ghost-degree
// rounds.
func TestCollectiveWaitsAreIdle(t *testing.T) {
	const p, late = 3, 100 * time.Millisecond
	collectives := []struct {
		name string
		run  func(c *Comm)
	}{
		{"Barrier", func(c *Comm) { c.Barrier() }},
		{"AllreduceSum", func(c *Comm) { c.AllreduceSum([]uint64{1}) }},
		{"Drain", func(c *Comm) { NewQueue(c, 0, nil).Drain() }},
	}
	for _, tc := range []struct {
		name string
		net  func() (transport.Network, error)
	}{
		{"chan", func() (transport.Network, error) { return transport.NewChanNetwork(p), nil }},
		{"tcp", func() (transport.Network, error) { return transport.NewLoopbackTCPNetwork(p) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net, err := tc.net()
			if err != nil {
				t.Fatal(err)
			}
			defer net.Close()
			idle := make([][]time.Duration, p) // [rank][collective]
			runCommsOn(t, net, p, func(rank int, c *Comm) {
				for _, col := range collectives {
					if rank == 0 {
						time.Sleep(late)
					}
					before := c.M.IdleNs
					col.run(c)
					idle[rank] = append(idle[rank], time.Duration(c.M.IdleNs-before))
				}
			})
			for i, col := range collectives {
				if d := idle[0][i]; d >= late/2 {
					t.Errorf("%s: the late rank 0 metered %v idle, want < %v", col.name, d, late/2)
				}
				for rank := 1; rank < p; rank++ {
					if d := idle[rank][i]; d < late/2 {
						t.Errorf("%s: rank %d waited for rank 0 but metered %v idle, want ≥ %v", col.name, rank, d, late/2)
					}
				}
			}
		})
	}
}

func TestBarrierRepeated(t *testing.T) {
	runComms(t, 5, func(rank int, c *Comm) {
		for i := 0; i < 10; i++ {
			c.Barrier()
		}
	})
}

func TestAllreduceSum(t *testing.T) {
	const p = 6
	results := make([][]uint64, p)
	runComms(t, p, func(rank int, c *Comm) {
		results[rank] = c.AllreduceSum([]uint64{uint64(rank), 1, uint64(rank * rank)})
	})
	wantA, wantC := uint64(0), uint64(0)
	for r := 0; r < p; r++ {
		wantA += uint64(r)
		wantC += uint64(r * r)
	}
	for rank, got := range results {
		if got[0] != wantA || got[1] != p || got[2] != wantC {
			t.Fatalf("PE %d: allreduce = %v, want [%d %d %d]", rank, got, wantA, p, wantC)
		}
	}
}

func TestCollectivesInterleavedWithQueueTraffic(t *testing.T) {
	// Data records arriving during a collective must be stashed, not lost.
	const p = 4
	var got [p]atomic.Int64
	net := transport.NewChanNetwork(p)
	defer net.Close()
	var wg sync.WaitGroup
	for rank := 0; rank < p; rank++ {
		ep, _ := net.Endpoint(rank)
		wg.Add(1)
		go func(rank int, ep transport.Endpoint) {
			defer wg.Done()
			c := New(ep)
			q := NewQueue(c, 1, nil) // flush immediately: records fly early
			q.Handle(0, func(src int, words []uint64) { got[rank].Add(int64(words[0])) })
			// Send before the collective so frames arrive while peers sit in
			// the allreduce.
			for dst := 0; dst < p; dst++ {
				if dst != rank {
					q.Send(0, dst, []uint64{1})
				}
			}
			c.AllreduceSum([]uint64{1})
			q.Drain()
		}(rank, ep)
	}
	wg.Wait()
	for rank := 0; rank < p; rank++ {
		if got[rank].Load() != p-1 {
			t.Fatalf("PE %d got %d records, want %d", rank, got[rank].Load(), p-1)
		}
	}
}

// TestMetricsSubAndAdd gives every field of Metrics its own value in a and
// b, so a field that Sub or Add leaves out fails here: Sub subtracts and Add
// sums every monotone counter, and both keep the larger value of the two
// high-water marks PeakBuffered and Peers.
func TestMetricsSubAndAdd(t *testing.T) {
	highWater := map[string]bool{"PeakBuffered": true, "Peers": true}
	var a, b Metrics
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	typ := va.Type()
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.Type.Kind() != reflect.Int64 {
			t.Fatalf("Metrics.%s is %s; this test assigns int64 counters only", f.Name, f.Type)
		}
		va.Field(i).SetInt(int64(1000 + 100*i)) // a > b in every field
		vb.Field(i).SetInt(int64(1 + i))
	}
	d := a.Sub(b)
	var acc Metrics
	acc.Add(a)
	acc.Add(b)
	vd, vacc := reflect.ValueOf(d), reflect.ValueOf(acc)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		x, y := va.Field(i).Int(), vb.Field(i).Int()
		wantSub, wantAdd := x-y, x+y
		if highWater[name] {
			wantSub, wantAdd = x, x
		}
		if got := vd.Field(i).Int(); got != wantSub {
			t.Errorf("Sub: %s = %d, want %d", name, got, wantSub)
		}
		if got := vacc.Field(i).Int(); got != wantAdd {
			t.Errorf("Add: %s = %d, want %d", name, got, wantAdd)
		}
	}
}

func TestAggregateOf(t *testing.T) {
	per := []Metrics{
		{SentFrames: 5, SentWords: 50, PayloadWords: 40, PeakBuffered: 10},
		{SentFrames: 9, SentWords: 30, PayloadWords: 70, PeakBuffered: 99},
	}
	a := AggregateOf(per)
	if a.TotalFrames != 14 || a.MaxSentFrames != 9 || a.MaxPayloadWords != 70 || a.MaxPeakBuffered != 99 {
		t.Fatalf("aggregate wrong: %+v", a)
	}
}
