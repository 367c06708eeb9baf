// Package transport provides point-to-point message delivery between PEs.
// It replaces MPI's transport role: the algorithms above it only assume
// reliable, non-overtaking-free (unordered across sources), asynchronous
// frame delivery.
//
// Two implementations are provided behind one interface: an in-process
// network connecting goroutine PEs (the default for experiments, exact
// communication metering, zero serialization) and a TCP network (stdlib net)
// for genuine multi-process clusters.
//
// Two frame shapes travel the network. Word frames ([]uint64) carry control
// and collective traffic, matching the paper's cost model, which measures in
// machine words. Byte frames ([]byte) carry codec-encoded data traffic: the
// communication layer above encodes record payloads (delta/varint
// compression of adjacency rows), and the transport ships the resulting
// bytes verbatim — the TCP transport in particular puts them on the wire
// without any further conversion. Send and SendBytes transfer ownership of
// the slice to the transport; the caller must not reuse it.
//
// Recv is a non-blocking poll. A transport whose frames reach the inbox
// through goroutines of its own (TCP's socket readers) also implements
// Waiter, so a PE with nothing to do can block until a frame may be pending
// instead of spinning and starving those goroutines of CPU. The in-process
// network deliberately does not: its senders append to the inbox directly,
// and parking there measured slower than spinning.
package transport

import "time"

// Frame is one delivered message. Exactly one of Words and Bytes is non-nil,
// depending on whether the frame was shipped with Send or SendBytes.
type Frame struct {
	Src   int
	Words []uint64
	Bytes []byte
}

// Endpoint is one PE's attachment to the network.
type Endpoint interface {
	// Rank returns this PE's rank in 0..Size()-1.
	Rank() int
	// Size returns the number of PEs.
	Size() int
	// Send queues words for delivery to dst. It does not block on the
	// receiver (asynchronous send with unbounded buffering, like a buffered
	// MPI_Isend). Ownership of words passes to the transport.
	Send(dst int, words []uint64) error
	// SendBytes queues an already-serialized byte frame for delivery to
	// dst, with the same asynchronous contract as Send. Ownership of b
	// passes to the transport.
	SendBytes(dst int, b []byte) error
	// Recv returns the next pending frame without blocking; ok is false if
	// none is pending.
	Recv() (f Frame, ok bool)
	// Close releases resources. Frames already queued may be lost.
	Close() error
}

// Waiter is an optional Endpoint extension: blocking receive.
type Waiter interface {
	// Wait returns as soon as a frame may be pending (a following Recv can
	// still come back empty) or once d has elapsed, whichever is first. It
	// returns at once when the endpoint is closed. Only the goroutine that
	// calls Recv may call Wait.
	Wait(d time.Duration)
}

// Network creates the endpoints of a cluster.
type Network interface {
	Endpoint(rank int) (Endpoint, error)
	Close() error
}
