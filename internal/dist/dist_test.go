package dist

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/transport"
)

// runWithDeadline fails the test with a clear message if Run does not
// return — the failure mode these tests exist to rule out is a livelocked
// sibling PE spinning on messages that will never arrive.
func runWithDeadline(t *testing.T, cfg Config, body func(*PE) error) ([]comm.Metrics, error) {
	t.Helper()
	type outcome struct {
		m   []comm.Metrics
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		m, err := Run(cfg, body)
		done <- outcome{m, err}
	}()
	select {
	case o := <-done:
		return o.m, o.err
	case <-time.After(30 * time.Second):
		t.Fatal("dist.Run deadlocked")
		return nil, nil
	}
}

func TestRunRejectsNonPositiveP(t *testing.T) {
	for _, p := range []int{0, -3} {
		if _, err := Run(Config{P: p}, func(*PE) error { return nil }); err == nil {
			t.Errorf("P=%d: expected error", p)
		}
	}
}

func TestRunRejectsMismatchedNetworkSize(t *testing.T) {
	net := transport.NewChanNetwork(8)
	defer net.Close()
	_, err := Run(Config{P: 4, Network: net}, func(*PE) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("size-mismatched network should error immediately, got %v", err)
	}
}

func TestRunWiresPEs(t *testing.T) {
	const p = 5
	var seen [p]atomic.Bool
	metrics, err := runWithDeadline(t, Config{P: p}, func(pe *PE) error {
		if pe.P != p || pe.C == nil || pe.Q == nil {
			return fmt.Errorf("PE %d wired wrong: %+v", pe.Rank, pe)
		}
		if pe.C.Rank() != pe.Rank || pe.C.Size() != p {
			return fmt.Errorf("comm rank/size mismatch on PE %d", pe.Rank)
		}
		if seen[pe.Rank].Swap(true) {
			return fmt.Errorf("rank %d ran twice", pe.Rank)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(metrics) != p {
		t.Fatalf("got %d metrics, want %d", len(metrics), p)
	}
	for r := range seen {
		if !seen[r].Load() {
			t.Errorf("rank %d never ran", r)
		}
	}
}

// TestBodyErrorDoesNotDeadlockSiblings is the runtime's core failure-path
// guarantee: one PE bailing out with an error must tear down PEs that are
// blocked in communication on traffic the failed PE will never send. Rank 2
// fails immediately; everyone else enters the termination protocol, which
// needs all ranks to participate.
func TestBodyErrorDoesNotDeadlockSiblings(t *testing.T) {
	boom := errors.New("boom")
	_, err := runWithDeadline(t, Config{P: 6}, func(pe *PE) error {
		pe.Q.Handle(0, func(int, []uint64) {})
		if pe.Rank == 2 {
			return boom
		}
		pe.Q.Send(0, (pe.Rank+1)%6, []uint64{uint64(pe.Rank)})
		pe.Q.Drain() // would spin forever without the abort
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error = %v, want wrapped %v", err, boom)
	}
	if !strings.Contains(err.Error(), "PE 2") {
		t.Errorf("error should name the failing rank: %v", err)
	}
}

// TestBodyErrorDuringCollective covers the other blocking primitive: ranks
// stuck in an allreduce while a sibling fails.
func TestBodyErrorDuringCollective(t *testing.T) {
	boom := errors.New("collective boom")
	_, err := runWithDeadline(t, Config{P: 4}, func(pe *PE) error {
		if pe.Rank == 3 {
			return boom
		}
		pe.C.AllreduceSum([]uint64{1})
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error = %v, want wrapped %v", err, boom)
	}
}

// TestAbortableKeepsOnlyRealWaiters: the abort wrapper offers blocking
// receive exactly when the transport has it (the in-process network does
// not), and a parked PE observes the abort flag when its wait ends.
func TestAbortableKeepsOnlyRealWaiters(t *testing.T) {
	var aborted atomic.Bool
	chanNet := transport.NewChanNetwork(1)
	defer chanNet.Close()
	ce, _ := chanNet.Endpoint(0)
	if _, ok := abortable(ce, &aborted).(transport.Waiter); ok {
		t.Fatal("a chan endpoint looks like a Waiter through the abort wrapper")
	}
	tcpNet, err := transport.NewLoopbackTCPNetwork(1)
	if err != nil {
		t.Fatal(err)
	}
	defer tcpNet.Close()
	te, _ := tcpNet.Endpoint(0)
	w, ok := abortable(te, &aborted).(transport.Waiter)
	if !ok {
		t.Fatal("the abort wrapper hides the TCP endpoint's Wait")
	}
	aborted.Store(true)
	defer func() {
		if rec := recover(); rec != ErrAborted {
			t.Fatalf("Wait under the abort flag recovered %v, want ErrAborted", rec)
		}
	}()
	w.Wait(time.Millisecond)
}

func TestFirstErrorInRankOrderWins(t *testing.T) {
	_, err := runWithDeadline(t, Config{P: 5}, func(pe *PE) error {
		if pe.Rank == 1 || pe.Rank == 4 {
			return fmt.Errorf("failure on rank %d", pe.Rank)
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "failure on rank 1") {
		t.Fatalf("want rank 1's error to win, got %v", err)
	}
}

func TestBodyPanicBecomesError(t *testing.T) {
	metrics, err := runWithDeadline(t, Config{P: 3}, func(pe *PE) error {
		if pe.Rank == 0 {
			panic("kaboom")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("panic not surfaced: %v", err)
	}
	if metrics != nil {
		t.Error("metrics should be nil on failure")
	}
}

// TestSinglePEMatchesSequentialProfile: with P=1 every queue Send is a
// local dispatch, so the run must exhibit the sequential baseline's
// zero-communication profile — no frames, no words, no control traffic, no
// peers — even though records flow through the queue and Drain runs the
// full termination protocol.
func TestSinglePEMatchesSequentialProfile(t *testing.T) {
	var delivered atomic.Int64
	metrics, err := runWithDeadline(t, Config{P: 1}, func(pe *PE) error {
		pe.Q.Handle(0, func(src int, words []uint64) {
			delivered.Add(int64(len(words)))
		})
		for i := 0; i < 100; i++ {
			pe.Q.Send(0, 0, []uint64{uint64(i), uint64(i * i)})
		}
		pe.Q.Drain()
		pe.C.Barrier()
		if got := pe.C.AllreduceSum([]uint64{7})[0]; got != 7 {
			return fmt.Errorf("allreduce on one PE = %d, want 7", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if delivered.Load() != 200 {
		t.Fatalf("local dispatch delivered %d words, want 200", delivered.Load())
	}
	m := metrics[0]
	want := comm.Metrics{PayloadWords: m.PayloadWords} // local payload is still metered
	if m != want {
		t.Errorf("P=1 profile has communication: %+v", m)
	}
	if m.PayloadWords != 200 {
		t.Errorf("PayloadWords = %d, want 200", m.PayloadWords)
	}
}

func TestMetricsIndexedByRank(t *testing.T) {
	metrics, err := runWithDeadline(t, Config{P: 3, Threshold: 1}, func(pe *PE) error {
		pe.Q.Handle(0, func(int, []uint64) {})
		if pe.Rank == 0 {
			pe.Q.Send(0, 1, []uint64{1, 2, 3})
		}
		pe.Q.Drain()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if metrics[0].SentFrames == 0 || metrics[0].PayloadWords != 3 {
		t.Errorf("rank 0 should have sent one frame of 3 payload words: %+v", metrics[0])
	}
	if metrics[1].RecvFrames == 0 {
		t.Errorf("rank 1 should have received: %+v", metrics[1])
	}
	if metrics[2].SentFrames != 0 || metrics[2].RecvFrames != 0 {
		t.Errorf("rank 2 should be idle: %+v", metrics[2])
	}
}

// TestIndirectRunRoutesViaGrid checks that Config.Indirect reaches the
// queue: with 9 PEs on a 3×3 grid, a corner-to-corner record takes two hops,
// so some intermediate PE both receives and re-sends traffic that is not
// addressed to it.
func TestIndirectRunRoutesViaGrid(t *testing.T) {
	const p = 9
	metrics, err := runWithDeadline(t, Config{P: p, Threshold: 1, Indirect: true}, func(pe *PE) error {
		pe.Q.Handle(0, func(src int, words []uint64) {
			if pe.Rank != p-1 {
				panic(fmt.Sprintf("record for %d delivered to %d", p-1, pe.Rank))
			}
		})
		if pe.Rank == 0 {
			pe.Q.Send(0, p-1, []uint64{42})
		}
		pe.Q.Drain()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var forwarders int
	for r := 1; r < p-1; r++ {
		if metrics[r].RecvFrames > 0 && metrics[r].SentFrames > 0 {
			forwarders++
		}
	}
	if forwarders == 0 {
		t.Errorf("no proxy forwarded the corner-to-corner record: %+v", metrics)
	}
}

func TestModeled(t *testing.T) {
	zero := Modeled([]comm.Metrics{{}})
	for name, d := range zero {
		if d != 0 {
			t.Errorf("%s: zero traffic modeled as %v", name, d)
		}
	}
	loaded := Modeled([]comm.Metrics{{SentFrames: 1000, SentWords: 1 << 20}})
	if !(loaded["supercomputer"] < loaded["cloud"] && loaded["cloud"] < loaded["wan"]) {
		t.Errorf("profiles out of order: %v", loaded)
	}
}
