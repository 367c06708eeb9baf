package transport

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"net"
	"strings"
	"testing"
	"time"
)

// Hardened-transport failure tests: handshake validation, CRC rejection,
// reconnect-with-backoff, bounded-retry peer condemnation, and heartbeat
// death detection, each pinned with its fault counter and attributed reason.

// tcpPair builds a two-endpoint loopback cluster and tears it down.
func tcpPair(t *testing.T, opt TCPOptions) (*TCPEndpoint, *TCPEndpoint) {
	t.Helper()
	n, err := NewLoopbackTCPNetworkOpts(2, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n.eps[0], n.eps[1]
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// recvFrom drains e until a frame arrives (or fails the test).
func recvFrom(t *testing.T, e *TCPEndpoint) Frame {
	t.Helper()
	var f Frame
	waitFor(t, 5*time.Second, "frame", func() bool {
		var ok bool
		f, ok = e.Recv()
		return ok
	})
	return f
}

func TestTCPHandshakeValidation(t *testing.T) {
	e0, _ := tcpPair(t, TCPOptions{})
	for _, hs := range []uint64{
		0xDEADBEEF << 32,               // wrong magic
		tcpMagic<<32 | 7,               // rank out of range for p=2
		tcpMagic<<32 | uint64(e0.rank), // impersonating the receiver itself
	} {
		c, err := net.Dial("tcp", e0.Addr())
		if err != nil {
			t.Fatal(err)
		}
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], hs)
		c.Write(b[:])
		// The endpoint must reject and close; the read observing EOF/reset is
		// the observable half of the rejection.
		c.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := c.Read(b[:]); err == nil {
			t.Fatalf("connection with handshake %#x not closed", hs)
		}
		c.Close()
	}
	waitFor(t, 2*time.Second, "bad-handshake counter", func() bool {
		return e0.Faults().BadHandshakes == 3
	})
	if got, ok := e0.Recv(); ok {
		t.Fatalf("frame %v delivered from an unvalidated connection", got)
	}
}

func TestTCPCRCRejection(t *testing.T) {
	e0, _ := tcpPair(t, TCPOptions{})
	c, err := net.Dial("tcp", e0.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var hs [8]byte
	binary.LittleEndian.PutUint64(hs[:], tcpMagic<<32|1)
	c.Write(hs[:])

	// A well-formed byte frame whose CRC trailer lies about the payload.
	payload := []byte("0123456789abcdef")
	frame := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint64(frame, uint64(len(payload))|tcpBytesFlag)
	copy(frame[8:], payload)
	good := crc32.Checksum(frame, castagnoli)
	frame = binary.LittleEndian.AppendUint32(frame, good^0xFFFF)
	c.Write(frame)

	waitFor(t, 2*time.Second, "corrupt-frame counter", func() bool {
		return e0.Faults().CorruptFrames == 1
	})
	if got, ok := e0.Recv(); ok {
		t.Fatalf("corrupt frame %v delivered", got)
	}
	if r := e0.FaultReason(1); !strings.Contains(r, "CRC mismatch") {
		t.Fatalf("close reason %q does not attribute the CRC failure", r)
	}
	// The stream must be condemned, not resynced: a valid frame after the
	// corrupt one must not arrive on the same connection.
	valid := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint64(valid, uint64(len(payload))|tcpBytesFlag)
	copy(valid[8:], payload)
	valid = binary.LittleEndian.AppendUint32(valid, good)
	c.Write(valid)
	time.Sleep(50 * time.Millisecond)
	if got, ok := e0.Recv(); ok {
		t.Fatalf("frame %v delivered on a condemned stream", got)
	}
}

func TestTCPCRCRoundTrip(t *testing.T) {
	e0, e1 := tcpPair(t, TCPOptions{})
	b := GetBuf(24)[:24]
	for i := range b {
		b[i] = byte(i * 7)
	}
	want := append([]byte(nil), b...)
	if err := e0.SendBytes(1, b); err != nil {
		t.Fatal(err)
	}
	f := recvFrom(t, e1)
	if f.Src != 0 || string(f.Bytes) != string(want) {
		t.Fatalf("frame = src %d, %v; want src 0, %v", f.Src, f.Bytes, want)
	}
	PutBuf(f.Bytes)
}

// TestTCPDeliversShortFrames: frames too short to carry a tag — a 3-byte
// and an empty byte frame (CRC intact), and an empty word frame — pass the
// transport exactly as sent. Rejecting them is the communication layer's
// job (comm's frame check), not the stream's.
func TestTCPDeliversShortFrames(t *testing.T) {
	e0, e1 := tcpPair(t, TCPOptions{})
	for _, b := range [][]byte{{1, 2, 3}, {}} {
		if err := e0.SendBytes(1, append(GetBuf(len(b)), b...)); err != nil {
			t.Fatal(err)
		}
		f := recvFrom(t, e1)
		if f.Src != 0 || f.Words != nil || f.Bytes == nil || string(f.Bytes) != string(b) {
			t.Fatalf("%d-byte frame delivered as src %d, words %v, bytes %v", len(b), f.Src, f.Words, f.Bytes)
		}
	}
	if err := e0.Send(1, []uint64{}); err != nil {
		t.Fatal(err)
	}
	if f := recvFrom(t, e1); f.Src != 0 || f.Bytes != nil || f.Words == nil || len(f.Words) != 0 {
		t.Fatalf("empty word frame delivered as src %d, words %v, bytes %v", f.Src, f.Words, f.Bytes)
	}
}

func TestTCPReconnectAfterConnDrop(t *testing.T) {
	e0, e1 := tcpPair(t, TCPOptions{RetryInterval: 5 * time.Millisecond})
	if err := e0.Send(1, []uint64{1}); err != nil {
		t.Fatal(err)
	}
	f := recvFrom(t, e1)
	if f.Words[0] != 1 {
		t.Fatalf("frame = %v", f.Words)
	}
	// Kill the established inbound connection on the receiver: the sender's
	// next write hits a reset and must transparently reconnect.
	e1.accMu.Lock()
	in := e1.inConns[0]
	e1.accMu.Unlock()
	in.Close()
	waitFor(t, 5*time.Second, "redelivery after reconnect", func() bool {
		if err := e0.Send(1, []uint64{2}); err != nil {
			t.Fatalf("send during reconnect window: %v", err)
		}
		f, ok := e1.Recv()
		return ok && f.Words[0] == 2
	})
	if e0.Faults().Reconnects == 0 {
		t.Fatal("reconnect not counted")
	}
	if e0.Health() != nil {
		t.Fatalf("peer condemned despite successful reconnect: %v", e0.Health())
	}
}

func TestTCPPeerDownAfterRetriesExhausted(t *testing.T) {
	e0, e1 := tcpPair(t, TCPOptions{
		RetryInterval:  2 * time.Millisecond,
		DialTimeout:    50 * time.Millisecond,
		MaxSendRetries: 2,
	})
	if err := e0.Send(1, []uint64{1}); err != nil {
		t.Fatal(err)
	}
	recvFrom(t, e1)
	// Take the peer fully offline: connection and listener both gone, so
	// every reconnect attempt fails until the retry budget is spent.
	e1.Close()
	var pd *PeerDownError
	waitFor(t, 10*time.Second, "typed PeerDownError", func() bool {
		err := e0.Send(1, []uint64{2})
		return errors.As(err, &pd)
	})
	if pd.Rank != 1 {
		t.Fatalf("PeerDownError.Rank = %d, want 1", pd.Rank)
	}
	if !strings.Contains(pd.Reason, "reconnect") {
		t.Fatalf("reason %q does not attribute the exhausted retries", pd.Reason)
	}
	var hpd *PeerDownError
	if err := e0.Health(); !errors.As(err, &hpd) || hpd.Rank != 1 {
		t.Fatalf("Health() = %v, want peer 1 down", err)
	}
	if e0.Faults().PeersDown != 1 {
		t.Fatalf("PeersDown = %d, want 1", e0.Faults().PeersDown)
	}
}

func TestTCPHeartbeatDeathDetection(t *testing.T) {
	opt := TCPOptions{
		HeartbeatInterval: 10 * time.Millisecond,
		HeartbeatTimeout:  60 * time.Millisecond,
		RetryInterval:     2 * time.Millisecond,
		DialTimeout:       50 * time.Millisecond,
		MaxSendRetries:    1,
	}
	e0, e1 := tcpPair(t, opt)
	// One-way traffic only: e0 monitors rank 1's inbound connection but has
	// no outbound one, so the silence verdict cannot lose the race to the
	// send-failure path condemning the same peer first.
	if err := e1.Send(0, []uint64{2}); err != nil {
		t.Fatal(err)
	}
	recvFrom(t, e0)
	// While both live, heartbeats keep the link healthy well past the timeout.
	time.Sleep(4 * opt.HeartbeatTimeout)
	if err := e0.Health(); err != nil {
		t.Fatalf("healthy peer condemned: %v", err)
	}
	// Kill peer 1 outright; its silence must condemn it within the timeout.
	e1.Close()
	var pd *PeerDownError
	waitFor(t, 5*time.Second, "heartbeat death verdict", func() bool {
		return errors.As(e0.Health(), &pd)
	})
	if pd.Rank != 1 || !strings.Contains(pd.Reason, "heartbeat") {
		t.Fatalf("verdict = %v, want heartbeat condemnation of rank 1", pd)
	}
	if e0.Faults().HeartbeatLoss != 1 {
		t.Fatalf("HeartbeatLoss = %d, want 1", e0.Faults().HeartbeatLoss)
	}
}

func TestTCPSendToCondemnedPeerFailsFast(t *testing.T) {
	e0, e1 := tcpPair(t, TCPOptions{
		RetryInterval:  2 * time.Millisecond,
		DialTimeout:    30 * time.Millisecond,
		MaxSendRetries: 1,
	})
	e0.Send(1, []uint64{1})
	recvFrom(t, e1)
	e1.Close()
	var pd *PeerDownError
	waitFor(t, 10*time.Second, "condemnation", func() bool {
		return errors.As(e0.Send(1, []uint64{2}), &pd)
	})
	// Once condemned, the failure is immediate (no dial, no backoff): the
	// fail-fast path must return the same sticky verdict.
	start := time.Now()
	err := e0.Send(1, []uint64{3})
	if took := time.Since(start); took > 50*time.Millisecond {
		t.Fatalf("send to condemned peer took %v, want fail-fast", took)
	}
	var pd2 *PeerDownError
	if !errors.As(err, &pd2) || pd2 != pd {
		t.Fatalf("err = %v, want the sticky verdict %v", err, pd)
	}
}
