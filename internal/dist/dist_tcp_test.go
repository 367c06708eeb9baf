package dist_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/leakcheck"
	"repro/internal/transport"
)

// Abort-semantics tests over real loopback TCP: the same failure taxonomy
// the in-process transport tests pin, but with actual sockets, writer
// goroutines, reconnect machinery, and heartbeats in the path.

func tcpNet(t *testing.T, p int, opt transport.TCPOptions) *transport.TCPNetwork {
	t.Helper()
	n, err := transport.NewLoopbackTCPNetworkOpts(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	// dist.Run closes the network itself; no cleanup here.
	return n
}

func TestRunTCPBodyErrorAborts(t *testing.T) {
	leakcheck.Check(t)
	net := tcpNet(t, 3, transport.TCPOptions{})
	start := time.Now()
	_, err := dist.Run(dist.Config{P: 3, Network: net, RunTimeout: 30 * time.Second},
		func(pe *dist.PE) error {
			if pe.Rank == 1 {
				return fmt.Errorf("deliberate failure on rank 1")
			}
			pe.C.Barrier() // parks on the failed rank until the abort unsticks it
			return nil
		})
	took := time.Since(start)
	var re *dist.RunError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *RunError", err)
	}
	if re.Cause != dist.CauseBody || re.Rank != 1 {
		t.Fatalf("got cause %s on rank %d, want body error on rank 1", re.Cause, re.Rank)
	}
	// A parked PE checks the abort flag after every bounded wait, so the
	// verdict is not held up by the survivors' waits.
	if took > time.Second {
		t.Fatalf("verdict took %v, want under 1s", took)
	}
}

func TestRunTCPWatchdogAttributesStall(t *testing.T) {
	leakcheck.Check(t)
	net := tcpNet(t, 3, transport.TCPOptions{})
	const deadline = 200 * time.Millisecond
	_, err := dist.Run(dist.Config{
		P: 3, Network: net,
		CommDeadline: deadline,
		RunTimeout:   30 * time.Second,
	}, func(pe *dist.PE) error {
		// Rank 0 never enters the barrier: the others wait on traffic that
		// will never arrive — the canonical silent-stall the watchdog exists
		// for (no peer died, so Health stays clean).
		if pe.Rank == 0 {
			return nil
		}
		pe.C.Barrier()
		return nil
	})
	var re *dist.RunError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *RunError", err)
	}
	if re.Cause != dist.CauseWatchdog {
		t.Fatalf("cause = %s, want watchdog", re.Cause)
	}
	var wd *comm.WatchdogError
	if !errors.As(err, &wd) {
		t.Fatalf("no WatchdogError in chain: %v", err)
	}
	// The stalled PEs are parked, not spinning: the watchdog must still fire
	// promptly once the deadline passes.
	if wd.Waited > 2*deadline {
		t.Fatalf("watchdog fired after %v, want within %v", wd.Waited, 2*deadline)
	}
}

func TestRunTCPRunTimeoutBoundsTheRun(t *testing.T) {
	leakcheck.Check(t)
	net := tcpNet(t, 2, transport.TCPOptions{})
	start := time.Now()
	_, err := dist.Run(dist.Config{
		P: 2, Network: net,
		RunTimeout: 500 * time.Millisecond, // no CommDeadline: the run watchdog is the only bound
	}, func(pe *dist.PE) error {
		if pe.Rank == 0 {
			return nil
		}
		pe.C.Barrier()
		return nil
	})
	took := time.Since(start)
	var re *dist.RunError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *RunError", err)
	}
	if re.Cause != dist.CauseTimeout || re.Rank != -1 {
		t.Fatalf("got cause %s on rank %d, want run timeout on rank -1", re.Cause, re.Rank)
	}
	if took > 10*time.Second {
		t.Fatalf("join took %v; the timeout did not unstick the stalled PE", took)
	}
}

func TestRunTCPPeerLossWinsAttribution(t *testing.T) {
	leakcheck.Check(t)
	net := tcpNet(t, 3, transport.TCPOptions{
		RetryInterval:     2 * time.Millisecond,
		DialTimeout:       100 * time.Millisecond,
		MaxSendRetries:    1,
		HeartbeatInterval: 15 * time.Millisecond,
		HeartbeatTimeout:  75 * time.Millisecond,
	})
	// The test kills rank 1's endpoint mid-run (listener and connections)
	// and has its body exit silently — a process death leaves no error
	// behind, only silence. The survivors' transports must condemn the dead
	// rank (heartbeat silence or reconnect exhaustion, whichever notices
	// first) and the runtime must attribute the abort to that peer loss.
	entered := make(chan struct{})
	killed := make(chan struct{})
	ep1, err := net.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		<-entered
		ep1.Close()
		close(killed)
	}()
	_, err = dist.Run(dist.Config{
		P: 3, Network: net,
		CommDeadline: 2 * time.Second,
		RunTimeout:   30 * time.Second,
	}, func(pe *dist.PE) error {
		pe.C.Barrier() // everyone connected and exchanging
		if pe.Rank == 1 {
			close(entered)
			<-killed
			return nil // dead: exits without a word, like a crashed process
		}
		pe.C.Barrier() // survivors block here until rank 1 is condemned
		return nil
	})
	var re *dist.RunError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *RunError", err)
	}
	if re.Cause != dist.CausePeerLoss {
		t.Fatalf("cause = %s, want peer loss (err: %v)", re.Cause, re)
	}
	var pl *comm.ErrPeerLost
	if !errors.As(err, &pl) || pl.Rank != 1 {
		t.Fatalf("peer loss blamed %v, want rank 1 (err: %v)", pl, err)
	}
	var pd *transport.PeerDownError
	if !errors.As(err, &pd) {
		t.Fatalf("no transport.PeerDownError in chain: %v", err)
	}
}
