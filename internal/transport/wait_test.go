package transport

import (
	"sync"
	"testing"
	"time"

	"repro/internal/leakcheck"
)

// The Waiter contract on TCP: Wait returns as soon as a frame may be
// pending, or after d, and never strands a receiver whose frame has
// arrived.

// timedWait runs e.Wait(d) and returns how long it blocked.
func timedWait(e *TCPEndpoint, d time.Duration) time.Duration {
	t0 := time.Now()
	e.Wait(d)
	return time.Since(t0)
}

func TestTCPWaitPendingReturnsAtOnce(t *testing.T) {
	leakcheck.Check(t)
	_, e1 := tcpPair(t, TCPOptions{})
	if err := e1.Send(1, []uint64{7}); err != nil { // self-send: pending before Wait
		t.Fatal(err)
	}
	if took := timedWait(e1, time.Minute); took > time.Second {
		t.Fatalf("Wait with a frame pending blocked %v", took)
	}
	if f, ok := e1.Recv(); !ok || f.Words[0] != 7 {
		t.Fatalf("Recv after Wait = %v, %v; want the pending frame", f, ok)
	}
}

func TestTCPWaitIdleTimesOut(t *testing.T) {
	leakcheck.Check(t)
	_, e1 := tcpPair(t, TCPOptions{})
	// A frame sent and taken before the wait leaves a wake-up token behind;
	// it must not end the idle wait early.
	if err := e1.Send(1, []uint64{1}); err != nil {
		t.Fatal(err)
	}
	if _, ok := e1.Recv(); !ok {
		t.Fatal("self-sent frame missing")
	}
	const d = 50 * time.Millisecond
	for i := 0; i < 3; i++ { // the timer is reused across waits
		if took := timedWait(e1, d); took < d || took > d+time.Second {
			t.Fatalf("idle Wait(%v) #%d returned after %v", d, i, took)
		}
	}
}

func TestTCPWaitWokenByPeerFrame(t *testing.T) {
	leakcheck.Check(t)
	e0, e1 := tcpPair(t, TCPOptions{})
	// Dial first, so the frame's latency excludes connection set-up.
	if err := e0.Send(1, []uint64{0}); err != nil {
		t.Fatal(err)
	}
	recvFrom(t, e1)
	sent := make(chan error, 1)
	go func() {
		time.Sleep(20 * time.Millisecond)
		sent <- e0.Send(1, []uint64{42})
	}()
	took := timedWait(e1, time.Minute)
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	if took > 5*time.Second {
		t.Fatalf("peer frame woke the waiter after %v", took)
	}
	if f := recvFrom(t, e1); f.Words[0] != 42 {
		t.Fatalf("frame = %v, want [42]", f.Words)
	}
}

func TestTCPWaitWokenByClose(t *testing.T) {
	leakcheck.Check(t)
	_, e1 := tcpPair(t, TCPOptions{})
	closed := make(chan error, 1)
	go func() {
		time.Sleep(20 * time.Millisecond)
		closed <- e1.Close()
	}()
	if took := timedWait(e1, time.Minute); took > 5*time.Second {
		t.Fatalf("Close woke the waiter after %v", took)
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if took := timedWait(e1, time.Minute); took > time.Second {
		t.Fatalf("Wait on a closed endpoint blocked %v", took)
	}
}

// TestTCPWaitNoLostWakeup: three peers send concurrently to one receiver
// that parks whenever its inbox is empty. Every park must end on a wake-up,
// never on the (long) timeout, while frames are still on their way.
func TestTCPWaitNoLostWakeup(t *testing.T) {
	leakcheck.Check(t)
	const p, per = 4, 300
	n, err := NewLoopbackTCPNetwork(p)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	var wg sync.WaitGroup
	defer wg.Wait() // sends never block, so this returns before Close
	for s := 1; s < p; s++ {
		wg.Add(1)
		go func(e *TCPEndpoint) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := e.Send(0, []uint64{uint64(i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(n.eps[s])
	}
	const d = 10 * time.Second
	recv := n.eps[0]
	for got := 0; got < (p-1)*per; {
		if _, ok := recv.Recv(); ok {
			got++
			continue
		}
		if took := timedWait(recv, d); took >= d {
			t.Fatalf("Wait ran to its timeout with %d of %d frames received: a wake-up was lost", got, (p-1)*per)
		}
	}
}

// BenchmarkTCPWaitSteadyState is the allocation gate for the parked receive
// path: per op, the peer sends one byte frame and the receiver parks in Wait
// until it lands, then takes it with Recv. After warm-up (connection dialled,
// inbox grown, frame pool filled, timer created) it must report 0 allocs/op.
func BenchmarkTCPWaitSteadyState(b *testing.B) {
	n, err := NewLoopbackTCPNetwork(2)
	if err != nil {
		b.Fatal(err)
	}
	defer n.Close()
	src, dst := n.eps[0], n.eps[1]
	round := func() {
		if err := src.SendBytes(1, GetBuf(64)[:64]); err != nil {
			b.Fatal(err)
		}
		for {
			dst.Wait(time.Second)
			if f, ok := dst.Recv(); ok {
				PutBuf(f.Bytes)
				return
			}
		}
	}
	for i := 0; i < 64; i++ {
		round()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.StopTimer() // the deferred Close is not part of the path
}
