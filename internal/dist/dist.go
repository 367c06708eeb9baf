// Package dist is the SPMD runtime under the distributed algorithms: it
// spawns one goroutine per processing element over a transport network and
// wires each into the communication layer (metered Comm, the dynamically
// buffered message Queue with threshold δ, and grid-based indirect routing
// when requested). The algorithms in internal/core are written exactly like
// MPI programs — a single body function executed by every rank — and this
// package plays the role of mpirun plus the communicator bootstrap.
package dist

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/comm"
	"repro/internal/transport"
)

// Config describes one cluster run.
type Config struct {
	// P is the number of processing elements (required, ≥ 1).
	P int
	// Threshold is the message-queue aggregation threshold δ in machine
	// words; ≤ 0 selects the queue's default.
	Threshold int
	// Indirect routes queue records over the logical 2D PE grid (two hops,
	// O(√p) peers per PE) instead of directly.
	Indirect bool
	// Network overrides the in-process channel transport (e.g. loopback
	// TCP). When nil, Run creates a ChanNetwork of size P. Run closes the
	// network when the run ends either way: endpoints are per-run state.
	Network transport.Network

	// CommDeadline arms every PE's communication watchdog (comm.SetDeadline):
	// a blocking primitive — the termination detector, any collective — that
	// sees no frame for this long fails with a typed error instead of
	// spinning forever on traffic that will never arrive. 0 disables it.
	CommDeadline time.Duration
	// RunTimeout bounds the whole cluster run: when it expires, the runtime
	// raises the abort flag (every PE observes it at its next transport
	// operation and unwinds), joins the PEs, and returns a *RunError with
	// CauseTimeout. 0 disables it. A PE stuck outside any transport
	// operation cannot be preempted; RunTimeout unsticks communication
	// waits, which is where distributed runs hang.
	RunTimeout time.Duration
}

// AbortCause classifies why a run failed, so callers can distinguish their
// own body's error from a lost peer from a stalled cluster without parsing
// error strings.
type AbortCause int

const (
	// CauseBody: a body function returned an error or panicked.
	CauseBody AbortCause = iota
	// CausePeerLoss: the transport condemned a peer (reconnects exhausted,
	// heartbeat silence, injected crash) and a blocking primitive surfaced
	// it as comm.ErrPeerLost.
	CausePeerLoss
	// CauseWatchdog: a communication primitive exceeded Config.CommDeadline
	// with no progress and no condemned peer to blame.
	CauseWatchdog
	// CauseTimeout: Config.RunTimeout expired before the cluster finished.
	CauseTimeout
	// CauseCorrupt: a PE received a data frame that failed envelope or codec
	// validation (comm.CorruptFrameError) — transport integrity, not the
	// body's fault.
	CauseCorrupt
)

func (c AbortCause) String() string {
	switch c {
	case CauseBody:
		return "body error"
	case CausePeerLoss:
		return "peer loss"
	case CauseWatchdog:
		return "watchdog"
	case CauseTimeout:
		return "run timeout"
	case CauseCorrupt:
		return "corrupt frame"
	default:
		return fmt.Sprintf("cause(%d)", int(c))
	}
}

// RunError is Run's structured failure report: which rank failed first (in
// rank order; -1 for whole-run causes like the timeout), why, and the
// underlying error with its full Unwrap chain intact (errors.Is/As reach the
// body's error, comm.ErrPeerLost, comm.WatchdogError, or
// transport.PeerDownError as appropriate).
type RunError struct {
	Cause AbortCause
	Rank  int
	Err   error
}

func (e *RunError) Error() string {
	if e.Rank < 0 {
		return fmt.Sprintf("dist: aborted (%s): %v", e.Cause, e.Err)
	}
	return fmt.Sprintf("dist: PE %d aborted (%s): %v", e.Rank, e.Cause, e.Err)
}

func (e *RunError) Unwrap() error { return e.Err }

// causePriority orders causes by how much they explain: a condemned peer is
// the root cause behind any watchdog noise the other ranks produced.
func causePriority(c AbortCause) int {
	switch c {
	case CausePeerLoss:
		return 0
	case CauseCorrupt:
		return 1
	case CauseBody:
		return 2
	case CauseWatchdog:
		return 3
	default:
		return 4
	}
}

// classify maps a recovered PE error to its abort cause.
func classify(err error) AbortCause {
	var pl *comm.ErrPeerLost
	if errors.As(err, &pl) {
		return CausePeerLoss
	}
	var cf *comm.CorruptFrameError
	if errors.As(err, &cf) {
		return CauseCorrupt
	}
	var wd *comm.WatchdogError
	if errors.As(err, &wd) {
		return CauseWatchdog
	}
	return CauseBody
}

// PE is one processing element's view of the cluster: its rank, the cluster
// size, the metered point-to-point/collective communicator, and the
// aggregating message queue.
type PE struct {
	Rank int
	P    int
	C    *comm.Comm
	Q    *comm.Queue
}

// Attach wires an existing transport endpoint into a PE. This is the
// single-rank entry point used by real multi-process clusters (each process
// attaches its own endpoint); Run uses it for every goroutine PE.
func Attach(ep transport.Endpoint, threshold int, indirect bool) *PE {
	c := comm.New(ep)
	var grid *comm.Grid
	if indirect {
		grid = comm.NewGrid(ep.Size())
	}
	return &PE{
		Rank: ep.Rank(),
		P:    ep.Size(),
		C:    c,
		Q:    comm.NewQueue(c, threshold, grid),
	}
}

// panicError turns a value recovered from a PE body into that PE's error.
// Typed panics from the communication layer (peer loss, watchdog, corrupt
// frame) and the abort echo keep their identity so classify can attribute
// them; anything else is reported with its stack.
func panicError(rec any) error {
	if err, ok := rec.(error); ok {
		if errors.Is(err, ErrAborted) {
			return ErrAborted
		}
		return err
	}
	return fmt.Errorf("panic: %v\n%s", rec, debug.Stack())
}

// Guard runs one attached PE's body the way Run runs each of its goroutine
// PEs, for a process that is a single rank of a cluster (core.RunRank): an
// error the body returns or panics with comes back as a *RunError naming
// pe's rank, classified by the same taxonomy, instead of crashing the
// process.
func Guard(pe *PE, body func() error) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = panicError(rec)
		}
		if err != nil {
			err = &RunError{Cause: classify(err), Rank: pe.Rank, Err: err}
		}
	}()
	return body()
}

// ErrAborted tears down PEs that outlive a failed sibling. The communication
// layer waits for a frame by polling its endpoint (parking in bounded
// Waiter.Wait steps where the transport can block), so without this a PE
// waiting for a frame that its failed peer will never send would wait
// forever; instead the wrapped endpoint panics with this sentinel and the
// runtime absorbs it. Run treats any PE error wrapping ErrAborted as an echo
// of the failure, never as its cause — a body that waits outside the
// transport (on a channel, say) and is released because a sibling failed
// must return an error wrapping it, or its "I was interrupted" report could
// outrank the sibling's actual diagnosis.
var ErrAborted = errors.New("dist: aborted: a sibling PE failed")

// abortableEndpoint checks a cluster-wide abort flag on every transport
// operation. It is the only cross-PE channel the runtime needs to guarantee
// that one failing body cannot deadlock the rest of the cluster.
type abortableEndpoint struct {
	transport.Endpoint
	aborted *atomic.Bool
}

func (e abortableEndpoint) Send(dst int, words []uint64) error {
	if e.aborted.Load() {
		panic(ErrAborted)
	}
	return e.Endpoint.Send(dst, words)
}

func (e abortableEndpoint) SendBytes(dst int, b []byte) error {
	if e.aborted.Load() {
		panic(ErrAborted)
	}
	return e.Endpoint.SendBytes(dst, b)
}

func (e abortableEndpoint) Recv() (transport.Frame, bool) {
	if e.aborted.Load() {
		panic(ErrAborted)
	}
	return e.Endpoint.Recv()
}

// Health forwards the inner endpoint's peer-health verdict (the embedded
// interface does not promote optional extensions), so comm's watchdog can
// attribute a stall to a condemned peer on any wrapped transport.
func (e abortableEndpoint) Health() error {
	if h, ok := e.Endpoint.(transport.HealthReporter); ok {
		return h.Health()
	}
	return nil
}

// abortableWaiter is abortableEndpoint over an inner transport.Waiter. It is
// a separate type so that an endpoint which cannot block never looks like a
// Waiter to the comm layer.
type abortableWaiter struct {
	abortableEndpoint
	w transport.Waiter
}

// Wait parks on the inner endpoint, then checks the abort flag, so a parked
// PE notices a sibling's failure within one wait.
func (e abortableWaiter) Wait(d time.Duration) {
	e.w.Wait(d)
	if e.aborted.Load() {
		panic(ErrAborted)
	}
}

// abortable wraps ep with the cluster-wide abort flag, keeping its blocking
// receive when it has one.
func abortable(ep transport.Endpoint, aborted *atomic.Bool) transport.Endpoint {
	ae := abortableEndpoint{Endpoint: ep, aborted: aborted}
	if w, ok := ep.(transport.Waiter); ok {
		return abortableWaiter{abortableEndpoint: ae, w: w}
	}
	return ae
}

// Run executes body on P goroutine PEs connected by cfg.Network (an
// in-process channel network by default) and returns each PE's communication
// metrics, indexed by rank.
//
// Error semantics match an MPI job launcher: every PE runs to completion or
// abort, all goroutines are joined before Run returns, and the first error
// in rank order wins. A body returning an error (or panicking) aborts the
// remaining PEs — they observe the abort at their next transport operation
// instead of spinning on messages that will never arrive.
func Run(cfg Config, body func(*PE) error) ([]comm.Metrics, error) {
	if cfg.P <= 0 {
		return nil, fmt.Errorf("dist: config needs P > 0, got %d", cfg.P)
	}
	net := cfg.Network
	if net == nil {
		net = transport.NewChanNetwork(cfg.P)
	}
	defer net.Close()

	var aborted atomic.Bool
	pes := make([]*PE, cfg.P)
	for r := range pes {
		ep, err := net.Endpoint(r)
		if err != nil {
			return nil, fmt.Errorf("dist: endpoint %d: %w", r, err)
		}
		if ep.Size() != cfg.P {
			// A size mismatch would otherwise deadlock: PEs would wait on
			// collectives involving ranks that are never spawned.
			return nil, fmt.Errorf("dist: network size %d does not match config P %d", ep.Size(), cfg.P)
		}
		pes[r] = Attach(abortable(ep, &aborted), cfg.Threshold, cfg.Indirect)
	}

	if cfg.CommDeadline > 0 {
		for _, pe := range pes {
			pe.C.SetDeadline(cfg.CommDeadline)
		}
	}

	errs := make([]error, cfg.P)
	var wg sync.WaitGroup
	for r := 0; r < cfg.P; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					aborted.Store(true)
					errs[r] = panicError(rec)
				}
			}()
			if err := body(pes[r]); err != nil {
				errs[r] = err
				aborted.Store(true)
			}
		}(r)
	}

	// Join, under the whole-run watchdog when configured: on expiry the
	// abort flag unsticks every PE blocked in a transport operation, then
	// the join completes and the timeout is reported as the cause.
	timedOut := false
	if cfg.RunTimeout > 0 {
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(cfg.RunTimeout):
			timedOut = true
			aborted.Store(true)
			<-done
		}
	} else {
		wg.Wait()
	}

	// Pick the most informative error: peer loss beats a body error beats a
	// watchdog report (a condemned peer explains why everyone else's
	// watchdog fired; the reverse explains nothing), rank order breaks ties.
	// Abort echoes only matter when no PE reported a cause (a body panicked
	// with ErrAborted itself — still an error, just a less informative one).
	var firstAbort, best error
	bestRank := -1
	for r, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, ErrAborted) {
			if firstAbort == nil {
				firstAbort = err
			}
			continue
		}
		if best == nil || causePriority(classify(err)) < causePriority(classify(best)) {
			best, bestRank = err, r
		}
	}
	if best != nil {
		return nil, &RunError{Cause: classify(best), Rank: bestRank, Err: best}
	}
	if timedOut {
		return nil, &RunError{Cause: CauseTimeout, Rank: -1,
			Err: fmt.Errorf("cluster did not finish within %v", cfg.RunTimeout)}
	}
	if firstAbort != nil {
		return nil, firstAbort
	}

	metrics := make([]comm.Metrics, cfg.P)
	for r, pe := range pes {
		metrics[r] = pe.C.M
	}
	return metrics, nil
}

// RankActivity is one rank's overlapped-work vs idle-wait split: Overlap is
// CPU time the rank spent on global-phase receive work while it was still
// emitting shipments (before the final drain, where the barriered path does
// all of it; summed over the rank's workers, so it can exceed wall time),
// Idle the wall time it waited inside the termination detector with nothing
// to process — the straggler-skew signal the overlapped pipeline shrinks.
// The worst rank's idle is aggregated as comm.Aggregate.MaxIdleNs.
type RankActivity struct {
	Rank    int
	Overlap time.Duration
	Idle    time.Duration
}

// Activity reports the per-rank overlap/idle breakdown of a run's metrics,
// indexed by rank.
func Activity(per []comm.Metrics) []RankActivity {
	out := make([]RankActivity, len(per))
	for r, m := range per {
		out[r] = RankActivity{
			Rank:    r,
			Overlap: time.Duration(m.OverlapNs),
			Idle:    time.Duration(m.IdleNs),
		}
	}
	return out
}

// SkewSummary condenses a run's per-rank load imbalance into a few numbers:
// the busiest and the average rank's receive-side
// intersection work (comm.Metrics.RecvWorkWords — deterministic, unlike
// wall clock) and their ratio (1.0 = perfectly balanced; the max-PE
// straggler finishes Ratio× later than the average under equal throughput),
// plus the worst rank's idle wait as the wall-clock echo of the same skew.
type SkewSummary struct {
	MaxRecvWork  int64
	MeanRecvWork float64
	Ratio        float64
	MaxIdle      time.Duration
}

// ActivitySkew summarizes per-rank activity imbalance from a run's metrics.
// Ratio is 0 when no rank did any receive-side work (nothing to skew).
func ActivitySkew(per []comm.Metrics) SkewSummary {
	var s SkewSummary
	var total int64
	for _, m := range per {
		total += m.RecvWorkWords
		if m.RecvWorkWords > s.MaxRecvWork {
			s.MaxRecvWork = m.RecvWorkWords
		}
		if idle := time.Duration(m.IdleNs); idle > s.MaxIdle {
			s.MaxIdle = idle
		}
	}
	if len(per) > 0 && total > 0 {
		s.MeanRecvWork = float64(total) / float64(len(per))
		s.Ratio = float64(s.MaxRecvWork) / s.MeanRecvWork
	}
	return s
}
