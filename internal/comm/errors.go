package comm

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/transport"
)

// Typed failure values. The communication layer runs inside a PE body whose
// established failure mechanism is panic (dist.Run recovers every PE
// goroutine and converts the value into a structured run error), so these
// types are raised by panic from the blocking primitives — what matters is
// that the recovered value is a typed error the runtime can attribute:
// errors.As distinguishes a lost peer from a stalled detector from a corrupt
// frame, instead of every failure collapsing into an opaque string.

// ErrPeerLost reports that a blocking communication primitive gave up
// because the transport condemned a peer: the four-counter termination
// detector or a collective was waiting on traffic from a rank that is dead.
type ErrPeerLost struct {
	Rank int   // the condemned peer
	Err  error // the transport's verdict (typically *transport.PeerDownError)
}

func (e *ErrPeerLost) Error() string {
	return fmt.Sprintf("comm: peer %d lost: %v", e.Rank, e.Err)
}

func (e *ErrPeerLost) Unwrap() error { return e.Err }

// WatchdogError reports that a blocking communication primitive exceeded the
// configured deadline with no progress and no condemned peer to blame — the
// distributed equivalent of a hang, surfaced as an error instead.
type WatchdogError struct {
	Where  string // which primitive stalled: "drain", "collective"
	Waited time.Duration
}

func (e *WatchdogError) Error() string {
	return fmt.Sprintf("comm: %s made no progress for %v (deadline exceeded)", e.Where, e.Waited)
}

// CorruptFrameError reports a frame that failed structural validation: a
// tag, kind or shape that no sender in comm produces, a control frame
// shorter than its reader needs, or a data payload that does not decode.
// The TCP transport's CRC trailer rejects wire corruption below this layer;
// this error covers corruption injected above it, a misbehaving peer, or a
// codec mismatch between sender and receiver.
type CorruptFrameError struct {
	Src    int
	Reason string
}

func (e *CorruptFrameError) Error() string {
	return fmt.Sprintf("comm: corrupt frame from %d: %s", e.Src, e.Reason)
}

// raiseSendErr converts a transport send failure into a typed panic: peer-
// down verdicts keep their attribution, everything else is wrapped with the
// failing operation.
func raiseSendErr(op string, dst int, err error) {
	var pd *transport.PeerDownError
	if errors.As(err, &pd) {
		panic(&ErrPeerLost{Rank: pd.Rank, Err: err})
	}
	panic(fmt.Errorf("comm: %s to %d: %w", op, dst, err))
}
