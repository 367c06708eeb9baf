package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// TCPEndpoint attaches one PE to a cluster over TCP. Every endpoint listens
// on its own address and lazily dials peers on first send. Wire format per
// connection: an 8-byte handshake carrying a magic constant and the dialer's
// rank (both validated by the acceptor), then frames of
// [8-byte header][payload][CRC32 trailer for byte frames]. The header's top
// bit distinguishes the two frame shapes: clear means a word frame (low bits
// = word count, payload is count × 8-byte little-endian words), set means a
// byte frame (low bits = byte count, payload shipped verbatim behind a
// CRC32-Castagnoli trailer over header+payload — this is how codec-encoded
// data frames reach the wire without re-serialization, and how corruption is
// rejected instead of mis-decoded). An all-ones header is a heartbeat: no
// payload, never queued, only refreshes the peer's liveness clock.
//
// Failure semantics: writes carry a per-write deadline and run on one writer
// goroutine per connection (senders enqueue and never block on the network,
// so a stalled peer cannot wedge other senders). A failed write triggers
// reconnect with exponential backoff; when the bounded retries are exhausted
// the peer is marked dead and every later send to it returns a typed
// *PeerDownError. With heartbeats enabled, peers silent past the timeout are
// marked dead the same way. Health() reports the first condemned peer;
// Faults() counts absorbed and surfaced failure events.
//
// Received frames land in the same unbounded inbox structure the in-process
// transport uses, so everything above the transport behaves identically.
// Because they land there from reader goroutines, the endpoint also
// implements Waiter: a receiver with nothing to do parks in Wait and leaves
// the CPU to the readers.
type TCPEndpoint struct {
	rank  int
	addrs []string
	ln    net.Listener

	inMu   sync.Mutex
	queue  []Frame
	head   int
	closed bool
	// notify holds a token when a frame was enqueued (or the endpoint closed)
	// since Wait last found the inbox empty. It is signalled under inMu, so
	// a token Wait finds while the inbox is empty is stale.
	notify chan struct{}
	// timer bounds Wait; reused across calls, so a wait allocates nothing.
	// Only the receiving goroutine touches it.
	timer *time.Timer

	outMu sync.Mutex
	conns map[int]*tcpConn

	accMu    sync.Mutex
	accepted []net.Conn
	inConns  map[int]net.Conn // inbound conns by validated handshake rank

	downMu  sync.Mutex
	down    map[int]*PeerDownError
	reasons map[int]string // last attributed close/condemn reason per peer

	hbMu      sync.Mutex
	lastHeard map[int]time.Time

	faults  faultCounters
	closing atomic.Bool
	stopHB  chan struct{}

	wg  sync.WaitGroup
	opt TCPOptions
}

// tcpConn is one outbound connection: an unbounded outbox drained by a
// dedicated writer goroutine. Senders only ever take mu long enough to
// append; all network I/O (including the initial dial, reconnects, and
// deadline-bounded writes) happens on the writer, so no send path can block
// on a stalled peer.
type tcpConn struct {
	e   *TCPEndpoint
	dst int

	mu   sync.Mutex
	cond *sync.Cond
	// outbox[head:] waits for the writer. It is consumed by index, like the
	// inbox, so a steady stream of sends reuses one backing array.
	outbox  [][]byte
	head    int
	writing bool // a dequeued frame is on the writer, not yet on the wire
	closed  bool
	dead    *PeerDownError
	c       net.Conn // current conn; pointer guarded by mu, I/O done outside it
}

// TCPOptions tunes connection establishment and failure detection.
type TCPOptions struct {
	DialTimeout   time.Duration // total time to keep retrying a peer dial (default 30s)
	RetryInterval time.Duration // pause between dial retries and base reconnect backoff (default 20ms)

	// WriteTimeout bounds every frame write (SetWriteDeadline); a write that
	// exceeds it counts as a send failure and enters the reconnect path.
	// Default 10s; negative disables the deadline.
	WriteTimeout time.Duration
	// MaxSendRetries is how many reconnect-with-backoff attempts a failed
	// write gets before the peer is marked dead (default 3; negative means
	// no retries).
	MaxSendRetries int

	// HeartbeatInterval > 0 enables the keepalive loop: the endpoint sends a
	// heartbeat frame to every established outbound connection each interval
	// and marks peers it has heard nothing from (heartbeats or frames, on
	// inbound connections) for HeartbeatTimeout as dead.
	HeartbeatInterval time.Duration
	// HeartbeatTimeout is the silence threshold; default 4×HeartbeatInterval.
	HeartbeatTimeout time.Duration
}

func (o TCPOptions) withDefaults() TCPOptions {
	if o.DialTimeout == 0 {
		o.DialTimeout = 30 * time.Second
	}
	if o.RetryInterval == 0 {
		o.RetryInterval = 20 * time.Millisecond
	}
	if o.WriteTimeout == 0 {
		o.WriteTimeout = 10 * time.Second
	}
	if o.MaxSendRetries == 0 {
		o.MaxSendRetries = 3
	}
	if o.HeartbeatInterval > 0 && o.HeartbeatTimeout == 0 {
		o.HeartbeatTimeout = 4 * o.HeartbeatInterval
	}
	return o
}

// ListenTCP starts the endpoint for rank over the given peer address list
// (addrs[i] is the listen address of rank i). It returns once the local
// listener is ready, so starting all ranks concurrently is safe.
func ListenTCP(rank int, addrs []string, opt TCPOptions) (*TCPEndpoint, error) {
	if rank < 0 || rank >= len(addrs) {
		return nil, fmt.Errorf("transport: rank %d out of range for %d addrs", rank, len(addrs))
	}
	ln, err := net.Listen("tcp", addrs[rank])
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addrs[rank], err)
	}
	return newTCPEndpoint(rank, addrs, ln, opt), nil
}

func newTCPEndpoint(rank int, addrs []string, ln net.Listener, opt TCPOptions) *TCPEndpoint {
	e := &TCPEndpoint{
		rank: rank, addrs: addrs, ln: ln,
		conns:     make(map[int]*tcpConn),
		inConns:   make(map[int]net.Conn),
		down:      make(map[int]*PeerDownError),
		reasons:   make(map[int]string),
		lastHeard: make(map[int]time.Time),
		notify:    make(chan struct{}, 1),
		stopHB:    make(chan struct{}),
		opt:       opt.withDefaults(),
	}
	e.wg.Add(1)
	go e.acceptLoop()
	if e.opt.HeartbeatInterval > 0 {
		e.wg.Add(1)
		go e.heartbeatLoop()
	}
	return e
}

// Addr returns the actual listen address (useful with ":0" addresses).
func (e *TCPEndpoint) Addr() string { return e.ln.Addr().String() }

func (e *TCPEndpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		c, err := e.ln.Accept()
		if err != nil {
			return // listener closed
		}
		e.accMu.Lock()
		e.accepted = append(e.accepted, c)
		e.accMu.Unlock()
		e.wg.Add(1)
		go e.readLoop(c)
	}
}

const (
	// tcpBytesFlag marks a byte frame in the length header's top bit.
	tcpBytesFlag = uint64(1) << 63
	// tcpHeartbeat is the reserved all-ones header of a heartbeat frame.
	tcpHeartbeat = ^uint64(0)
	// tcpMagic occupies the high 32 bits of the handshake word; a connection
	// whose handshake lacks it (a stray client, a corrupted stream) is
	// rejected before any frame is read.
	tcpMagic = uint64(0x7C3A94E1)
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// condemnConn records an attributed reason for dropping an inbound
// connection (src < 0 when the handshake never identified one) and closes it.
func (e *TCPEndpoint) condemnConn(c net.Conn, src int, reason string) {
	if src >= 0 {
		e.downMu.Lock()
		e.reasons[src] = reason
		e.downMu.Unlock()
	}
	c.Close()
}

// markPeerDown condemns a peer: the first caller's error sticks, later sends
// to the rank fail fast with it, and Health() reports it.
func (e *TCPEndpoint) markPeerDown(rank int, reason string, err error) *PeerDownError {
	e.downMu.Lock()
	defer e.downMu.Unlock()
	if pd, ok := e.down[rank]; ok {
		return pd
	}
	pd := &PeerDownError{Rank: rank, Reason: reason, Err: err}
	e.down[rank] = pd
	e.reasons[rank] = reason
	e.faults.peersDown.Add(1)
	return pd
}

// peerDown returns the terminal error for rank, if it has one.
func (e *TCPEndpoint) peerDown(rank int) *PeerDownError {
	e.downMu.Lock()
	defer e.downMu.Unlock()
	return e.down[rank]
}

// Health reports the first condemned peer in rank order, or nil while every
// peer looks reachable. It implements HealthReporter.
func (e *TCPEndpoint) Health() error {
	e.downMu.Lock()
	defer e.downMu.Unlock()
	for r := 0; r < len(e.addrs); r++ {
		if pd, ok := e.down[r]; ok {
			return pd
		}
	}
	return nil
}

// Faults returns this endpoint's cumulative fault counters. It implements
// FaultReporter.
func (e *TCPEndpoint) Faults() FaultStats { return e.faults.snapshot() }

// FaultReason returns the last attributed failure reason recorded for a peer
// ("" if none): why its connection was dropped or why it was marked dead.
func (e *TCPEndpoint) FaultReason(rank int) string {
	e.downMu.Lock()
	defer e.downMu.Unlock()
	return e.reasons[rank]
}

func (e *TCPEndpoint) noteHeard(src int) {
	if e.opt.HeartbeatInterval <= 0 {
		return
	}
	e.hbMu.Lock()
	e.lastHeard[src] = time.Now()
	e.hbMu.Unlock()
}

func (e *TCPEndpoint) heartbeatLoop() {
	defer e.wg.Done()
	tick := time.NewTicker(e.opt.HeartbeatInterval)
	defer tick.Stop()
	for {
		select {
		case <-e.stopHB:
			return
		case <-tick.C:
		}
		// Keepalive: one heartbeat frame per established outbound connection.
		e.outMu.Lock()
		conns := make([]*tcpConn, 0, len(e.conns))
		for _, tc := range e.conns {
			conns = append(conns, tc)
		}
		e.outMu.Unlock()
		for _, tc := range conns {
			hb := GetBuf(8)[:8]
			binary.LittleEndian.PutUint64(hb, tcpHeartbeat)
			tc.enqueue(hb) // a dead conn recycles the buffer itself
		}
		// Liveness: condemn peers we have heard nothing from past the
		// timeout. Only peers that completed an inbound handshake are
		// monitored — silence from a peer that never connected means it has
		// nothing to say, not that it died.
		now := time.Now()
		var lost []int
		e.hbMu.Lock()
		for src, at := range e.lastHeard {
			if now.Sub(at) > e.opt.HeartbeatTimeout {
				lost = append(lost, src)
				delete(e.lastHeard, src)
			}
		}
		e.hbMu.Unlock()
		for _, src := range lost {
			e.faults.heartbeatLoss.Add(1)
			e.markPeerDown(src, fmt.Sprintf("heartbeat timeout (> %v silent)", e.opt.HeartbeatTimeout), nil)
			e.accMu.Lock()
			c := e.inConns[src]
			e.accMu.Unlock()
			if c != nil {
				c.Close()
			}
		}
	}
}

func (e *TCPEndpoint) readLoop(c net.Conn) {
	defer e.wg.Done()
	defer c.Close()
	var hdr [8]byte
	if _, err := io.ReadFull(c, hdr[:]); err != nil {
		return
	}
	// Handshake validation: the magic keeps stray clients and desynced
	// streams out; the rank range keeps a bad peer from impersonating a
	// nonexistent (or our own) rank and corrupting Frame.Src attribution.
	hs := binary.LittleEndian.Uint64(hdr[:])
	src := int(uint32(hs))
	if hs>>32 != tcpMagic || src < 0 || src >= len(e.addrs) || src == e.rank {
		e.faults.badHandshakes.Add(1)
		e.condemnConn(c, -1, fmt.Sprintf("invalid handshake %#x from %s", hs, c.RemoteAddr()))
		return
	}
	e.accMu.Lock()
	e.inConns[src] = c
	e.accMu.Unlock()
	e.noteHeard(src)
	buf := make([]byte, 0)
	var crcTrailer [4]byte
	for {
		if _, err := io.ReadFull(c, hdr[:]); err != nil {
			return
		}
		h := binary.LittleEndian.Uint64(hdr[:])
		if h == tcpHeartbeat {
			e.noteHeard(src)
			continue
		}
		n := h &^ tcpBytesFlag
		// Sanity cap at 8 GiB per frame for both shapes (n counts words for
		// word frames, bytes for byte frames — byte frames get the larger
		// count so an encoded frame never hits a tighter limit than its raw
		// equivalent would have).
		if h&tcpBytesFlag == 0 && n > 1<<30 || n > 8<<30 {
			e.faults.corruptFrames.Add(1)
			e.condemnConn(c, src, fmt.Sprintf("corrupt frame header %#x from rank %d", h, src))
			return
		}
		var f Frame
		if h&tcpBytesFlag != 0 {
			// Byte frame: the payload is retained by the receiver, so it
			// needs its own backing array — recycled through the frame pool,
			// which the consumer refills with PutBuf after dispatch.
			data := GetBuf(int(n))[:n]
			if _, err := io.ReadFull(c, data); err != nil {
				PutBuf(data)
				return
			}
			if _, err := io.ReadFull(c, crcTrailer[:]); err != nil {
				PutBuf(data)
				return
			}
			crc := crc32.Update(0, castagnoli, hdr[:])
			crc = crc32.Update(crc, castagnoli, data)
			if crc != binary.LittleEndian.Uint32(crcTrailer[:]) {
				// Reject corruption instead of mis-decoding it: count it,
				// attribute it, and drop the stream (frame boundaries after a
				// corrupt payload cannot be trusted).
				e.faults.corruptFrames.Add(1)
				PutBuf(data)
				e.condemnConn(c, src, fmt.Sprintf("CRC mismatch on %d-byte frame from rank %d", n, src))
				return
			}
			f = Frame{Src: src, Bytes: data}
		} else {
			if uint64(cap(buf)) < 8*n {
				buf = make([]byte, 8*n)
			}
			buf = buf[:8*n]
			if _, err := io.ReadFull(c, buf); err != nil {
				return
			}
			words := make([]uint64, n)
			for i := range words {
				words[i] = binary.LittleEndian.Uint64(buf[8*i:])
			}
			f = Frame{Src: src, Words: words}
		}
		e.noteHeard(src)
		e.inMu.Lock()
		if e.closed {
			e.inMu.Unlock()
			PutBuf(f.Bytes)
			return
		}
		e.enqueueLocked(f)
		e.inMu.Unlock()
	}
}

// enqueueLocked appends f to the inbox and wakes a parked Wait; callers hold
// inMu.
func (e *TCPEndpoint) enqueueLocked(f Frame) {
	e.queue = append(e.queue, f)
	e.signalLocked()
}

// signalLocked leaves a wake-up token for Wait (at most one is ever held);
// callers hold inMu.
func (e *TCPEndpoint) signalLocked() {
	select {
	case e.notify <- struct{}{}:
	default:
	}
}

// Rank returns this PE's rank.
func (e *TCPEndpoint) Rank() int { return e.rank }

// Size returns the number of PEs.
func (e *TCPEndpoint) Size() int { return len(e.addrs) }

// Send serializes words to dst. The frame is handed to dst's writer
// goroutine and put on the wire asynchronously; a send failure there
// surfaces on a *later* Send/SendBytes to the same rank as a *PeerDownError
// once the bounded reconnect attempts are exhausted. Sending to self is
// delivered locally without touching the network.
func (e *TCPEndpoint) Send(dst int, words []uint64) error {
	if dst == e.rank {
		e.inMu.Lock()
		defer e.inMu.Unlock()
		if e.closed {
			return errors.New("transport: endpoint closed")
		}
		e.enqueueLocked(Frame{Src: e.rank, Words: words})
		return nil
	}
	tc, err := e.conn(dst)
	if err != nil {
		return err
	}
	buf := GetBuf(8 + 8*len(words))[:8+8*len(words)]
	binary.LittleEndian.PutUint64(buf, uint64(len(words)))
	for i, w := range words {
		binary.LittleEndian.PutUint64(buf[8+8*i:], w)
	}
	return tc.enqueue(buf)
}

// SendBytes ships an already-serialized byte frame; the payload bytes go on
// the wire verbatim behind the length header, with a CRC32 trailer so the
// receiver can reject corruption. Same asynchronous error contract as Send.
func (e *TCPEndpoint) SendBytes(dst int, b []byte) error {
	if dst == e.rank {
		e.inMu.Lock()
		defer e.inMu.Unlock()
		if e.closed {
			PutBuf(b) // ownership transferred; nobody will consume it
			return errors.New("transport: endpoint closed")
		}
		e.enqueueLocked(Frame{Src: e.rank, Bytes: b})
		return nil
	}
	tc, err := e.conn(dst)
	if err != nil {
		PutBuf(b)
		return err
	}
	buf := GetBuf(8 + len(b) + 4)[:8+len(b)]
	binary.LittleEndian.PutUint64(buf, uint64(len(b))|tcpBytesFlag)
	copy(buf[8:], b)
	crc := crc32.Checksum(buf, castagnoli)
	buf = binary.LittleEndian.AppendUint32(buf, crc)
	// The caller's frame (whose ownership passed to the transport) is done
	// once it is copied into the wire buffer; the wire buffer itself is
	// recycled by the writer goroutine after the bytes are on the wire.
	PutBuf(b)
	return tc.enqueue(buf)
}

// conn returns the outbound connection state for dst, creating it (and its
// writer goroutine) on first use. It fails fast if dst is already condemned.
func (e *TCPEndpoint) conn(dst int) (*tcpConn, error) {
	if pd := e.peerDown(dst); pd != nil {
		return nil, pd
	}
	e.outMu.Lock()
	defer e.outMu.Unlock()
	if tc, ok := e.conns[dst]; ok {
		return tc, nil
	}
	tc := &tcpConn{e: e, dst: dst}
	tc.cond = sync.NewCond(&tc.mu)
	e.conns[dst] = tc
	e.wg.Add(1)
	go tc.writeLoop()
	return tc, nil
}

// dialPeer dials dst and performs the handshake, retrying until the dial
// window closes. Used for both the initial connection and reconnects.
func (e *TCPEndpoint) dialPeer(dst int, window time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(window)
	var c net.Conn
	var err error
	for {
		if e.closing.Load() {
			return nil, errors.New("transport: endpoint closing")
		}
		c, err = net.DialTimeout("tcp", e.addrs[dst], e.opt.RetryInterval*10)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("transport: dial rank %d (%s): %w", dst, e.addrs[dst], err)
		}
		time.Sleep(e.opt.RetryInterval)
	}
	var hs [8]byte
	binary.LittleEndian.PutUint64(hs[:], tcpMagic<<32|uint64(uint32(e.rank)))
	if e.opt.WriteTimeout > 0 {
		c.SetWriteDeadline(time.Now().Add(e.opt.WriteTimeout))
	}
	if _, err := c.Write(hs[:]); err != nil {
		c.Close()
		return nil, fmt.Errorf("transport: handshake to %d: %w", dst, err)
	}
	c.SetWriteDeadline(time.Time{})
	return c, nil
}

// enqueue appends a wire buffer to the outbox (never blocking on the
// network). It fails fast when the peer is already condemned or the endpoint
// closed, recycling the buffer in that case.
func (tc *tcpConn) enqueue(buf []byte) error {
	tc.mu.Lock()
	if tc.dead != nil {
		tc.mu.Unlock()
		PutBuf(buf)
		return tc.dead
	}
	if tc.closed {
		tc.mu.Unlock()
		PutBuf(buf)
		return errors.New("transport: endpoint closed")
	}
	tc.outbox = append(tc.outbox, buf)
	tc.cond.Signal()
	tc.mu.Unlock()
	return nil
}

// writeLoop drains the outbox onto the wire: one frame at a time, each write
// bounded by the write deadline, failures absorbed by reconnect-with-backoff
// until the retry budget is spent — at which point the peer is condemned and
// the remaining outbox is dropped.
func (tc *tcpConn) writeLoop() {
	e := tc.e
	defer e.wg.Done()
	for {
		tc.mu.Lock()
		for tc.head == len(tc.outbox) && !tc.closed {
			tc.cond.Wait()
		}
		if tc.closed {
			tc.drainLocked()
			tc.mu.Unlock()
			return
		}
		buf := tc.outbox[tc.head]
		tc.outbox[tc.head] = nil
		tc.head++
		if tc.head == len(tc.outbox) {
			tc.outbox, tc.head = tc.outbox[:0], 0
		} else if tc.head > 1024 && tc.head*2 > len(tc.outbox) {
			n := copy(tc.outbox, tc.outbox[tc.head:])
			tc.outbox, tc.head = tc.outbox[:n], 0
		}
		tc.writing = true
		tc.mu.Unlock()

		if err := tc.writeFrame(buf); err != nil {
			PutBuf(buf)
			pd := e.markPeerDown(tc.dst, fmt.Sprintf("send failed after %d reconnect attempts", maxRetries(e.opt)), err)
			tc.mu.Lock()
			tc.dead = pd
			tc.writing = false
			tc.drainLocked()
			tc.mu.Unlock()
			return
		}
		tc.mu.Lock()
		tc.writing = false
		tc.mu.Unlock()
		PutBuf(buf)
	}
}

// drainLocked recycles every queued wire buffer; callers hold tc.mu.
func (tc *tcpConn) drainLocked() {
	for i, b := range tc.outbox[tc.head:] {
		PutBuf(b)
		tc.outbox[tc.head+i] = nil
	}
	tc.outbox, tc.head = nil, 0
	if tc.c != nil {
		tc.c.Close()
		tc.c = nil
	}
}

func maxRetries(opt TCPOptions) int {
	if opt.MaxSendRetries < 0 {
		return 0
	}
	return opt.MaxSendRetries
}

// writeFrame puts one frame on the wire, establishing or re-establishing the
// connection as needed. Reconnects back off exponentially from RetryInterval.
// A frame that failed mid-write is resent from the start on the fresh
// connection (the peer discards the torn tail of the old stream), so frame
// boundaries survive reconnects; a frame whose write "failed" after actual
// delivery may be duplicated, which the wire contract (unordered, at-least-
// once under reconnect) permits.
func (tc *tcpConn) writeFrame(buf []byte) error {
	e := tc.e
	backoff := e.opt.RetryInterval
	var lastErr error
	for attempt := 0; ; attempt++ {
		tc.mu.Lock()
		c, closed := tc.c, tc.closed
		tc.mu.Unlock()
		// During Close's flush phase (closing set, conns not yet torn down) an
		// established connection still completes its write — that is the whole
		// point of the flush; only dials and reconnects give up.
		if closed || (e.closing.Load() && c == nil) {
			if lastErr == nil {
				lastErr = errors.New("transport: endpoint closing")
			}
			return lastErr
		}
		if c == nil {
			// First attempt gets the full dial window (cluster startup);
			// reconnects get one backoff-scaled slice per retry.
			window := e.opt.DialTimeout
			if attempt > 0 {
				window = backoff
			}
			nc, err := e.dialPeer(tc.dst, window)
			if err != nil {
				lastErr = err
				if attempt >= maxRetries(e.opt) {
					return lastErr
				}
				time.Sleep(backoff)
				backoff *= 2
				continue
			}
			if attempt > 0 {
				e.faults.reconnects.Add(1)
			}
			tc.mu.Lock()
			if tc.closed {
				tc.mu.Unlock()
				nc.Close()
				return errors.New("transport: endpoint closing")
			}
			tc.c = nc
			c = nc
			tc.mu.Unlock()
		}
		if e.opt.WriteTimeout > 0 {
			c.SetWriteDeadline(time.Now().Add(e.opt.WriteTimeout))
		}
		_, err := c.Write(buf)
		if err == nil {
			return nil
		}
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			e.faults.writeTimeouts.Add(1)
		}
		lastErr = fmt.Errorf("transport: send to %d: %w", tc.dst, err)
		c.Close()
		tc.mu.Lock()
		tc.c = nil
		tc.mu.Unlock()
		if attempt >= maxRetries(e.opt) {
			return lastErr
		}
		time.Sleep(backoff)
		backoff *= 2
	}
}

// Recv returns the next pending frame without blocking.
func (e *TCPEndpoint) Recv() (Frame, bool) {
	e.inMu.Lock()
	defer e.inMu.Unlock()
	if e.head >= len(e.queue) {
		return Frame{}, false
	}
	f := e.queue[e.head]
	e.queue[e.head] = Frame{}
	e.head++
	if e.head == len(e.queue) {
		// Rewind as soon as the inbox empties, so a receiver that parks
		// instead of polling the empty inbox still reuses its array.
		e.queue, e.head = e.queue[:0], 0
	} else if e.head > 1024 && e.head*2 > len(e.queue) {
		n := copy(e.queue, e.queue[e.head:])
		e.queue = e.queue[:n]
		e.head = 0
	}
	return f, true
}

// Wait blocks until a frame is enqueued (by a socket reader or a self-send),
// the endpoint closes, or d elapses. It implements Waiter.
func (e *TCPEndpoint) Wait(d time.Duration) {
	e.inMu.Lock()
	if e.head < len(e.queue) || e.closed {
		e.inMu.Unlock()
		return
	}
	select {
	case <-e.notify: // stale: its frame was already taken by Recv
	default:
	}
	e.inMu.Unlock()
	if e.timer == nil {
		e.timer = time.NewTimer(d)
	} else {
		// Drop a tick that fired after the last wait ended on notify, so
		// Reset starts from a drained channel.
		select {
		case <-e.timer.C:
		default:
		}
		e.timer.Reset(d)
	}
	select {
	case <-e.notify:
		e.timer.Stop()
	case <-e.timer.C:
	}
}

// closeFlushTimeout bounds how long Close waits for queued frames to reach
// the wire. Send returns once a frame is enqueued, so without this flush a
// clean shutdown right after a completed Send could strand the frame in the
// outbox — fatal in the one-process-per-rank mode, where the final allreduce
// reply must survive the sender's exit. The bound keeps Close from hanging
// on a wedged peer; condemned connections are not waited on at all.
const closeFlushTimeout = 5 * time.Second

// flushOutboxes waits (bounded) for every live connection's queued and
// in-flight frames to hit the wire.
func (e *TCPEndpoint) flushOutboxes() {
	deadline := time.Now().Add(closeFlushTimeout)
	e.outMu.Lock()
	conns := make([]*tcpConn, 0, len(e.conns))
	for _, tc := range e.conns {
		conns = append(conns, tc)
	}
	e.outMu.Unlock()
	for _, tc := range conns {
		for {
			tc.mu.Lock()
			pending := tc.dead == nil && !tc.closed && (len(tc.outbox) > tc.head || tc.writing)
			tc.mu.Unlock()
			if !pending || !time.Now().Before(deadline) {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// Close flushes pending sends (bounded), then shuts down the listener, the
// heartbeat loop, every writer goroutine, and all connections, and joins them.
func (e *TCPEndpoint) Close() error {
	if e.closing.Swap(true) {
		e.wg.Wait()
		return nil
	}
	e.flushOutboxes()
	close(e.stopHB)
	e.inMu.Lock()
	e.closed = true
	for _, f := range e.queue[e.head:] {
		PutBuf(f.Bytes)
	}
	e.queue, e.head = nil, 0
	e.signalLocked() // a parked Wait returns
	e.inMu.Unlock()
	err := e.ln.Close()
	e.outMu.Lock()
	for _, tc := range e.conns {
		tc.mu.Lock()
		tc.closed = true
		if tc.c != nil {
			tc.c.Close() // unsticks a writer blocked inside Write
		}
		tc.cond.Signal()
		tc.mu.Unlock()
	}
	e.outMu.Unlock()
	e.accMu.Lock()
	for _, c := range e.accepted {
		c.Close()
	}
	e.accMu.Unlock()
	e.wg.Wait()
	return err
}

// TCPNetwork implements Network by spinning up all endpoints in one process
// on loopback — used by tests and the tcpcluster example to exercise the
// real wire path without multiple processes.
type TCPNetwork struct {
	eps []*TCPEndpoint
}

// NewLoopbackTCPNetwork creates p endpoints on 127.0.0.1 ephemeral ports
// with default options.
func NewLoopbackTCPNetwork(p int) (*TCPNetwork, error) {
	return NewLoopbackTCPNetworkOpts(p, TCPOptions{})
}

// NewLoopbackTCPNetworkOpts is NewLoopbackTCPNetwork with explicit transport
// options (heartbeats, write deadlines, retry budgets) applied to every
// endpoint.
func NewLoopbackTCPNetworkOpts(p int, opt TCPOptions) (*TCPNetwork, error) {
	// First pass: bind listeners on port 0 to learn addresses.
	addrs := make([]string, p)
	lns := make([]net.Listener, p)
	for i := 0; i < p; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for j := 0; j < i; j++ {
				lns[j].Close()
			}
			return nil, err
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	net_ := &TCPNetwork{eps: make([]*TCPEndpoint, p)}
	for i := 0; i < p; i++ {
		net_.eps[i] = newTCPEndpoint(i, addrs, lns[i], opt)
	}
	return net_, nil
}

// Endpoint returns the endpoint for rank.
func (n *TCPNetwork) Endpoint(rank int) (Endpoint, error) {
	if rank < 0 || rank >= len(n.eps) {
		return nil, fmt.Errorf("transport: rank %d out of range", rank)
	}
	return n.eps[rank], nil
}

// Close closes every endpoint.
func (n *TCPNetwork) Close() error {
	var first error
	for _, e := range n.eps {
		if err := e.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
