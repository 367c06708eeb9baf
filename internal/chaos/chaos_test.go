package chaos_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/leakcheck"
	"repro/internal/testgraph"
	"repro/internal/transport"
)

// The recovery contract every fault scenario must satisfy: the run ends (no
// hang — enforced by RunTimeout plus the test timeout), the error is a typed
// *dist.RunError whose cause attributes the injected fault, and no
// transport/runtime goroutine outlives the run (leakcheck).

const chaosP = 4

// chaosCfg is the hardened-run base config: watchdogs armed tight enough to
// keep the grid fast, the run timeout as the last-resort backstop.
func chaosCfg(net transport.Network) core.Config {
	return core.Config{
		P:            chaosP,
		Network:      net,
		CommDeadline: 300 * time.Millisecond,
		RunTimeout:   20 * time.Second,
	}
}

// TestFaultFreeEquivalence pins the injector's pass-through: a chaos wrapper
// with an empty plan must be invisible — every fixture counts exactly its
// known triangle total through the wrapped transport.
func TestFaultFreeEquivalence(t *testing.T) {
	leakcheck.Check(t)
	for _, fx := range testgraph.All {
		t.Run(fx.Name, func(t *testing.T) {
			net := chaos.Wrap(transport.NewChanNetwork(chaosP), chaos.Plan{Seed: 1})
			res, err := core.Run(core.AlgoCetric, fx.Build(), chaosCfg(net))
			if err != nil {
				t.Fatalf("fault-free chaos run failed: %v", err)
			}
			if res.Count != fx.Triangles {
				t.Fatalf("count = %d, want %d", res.Count, fx.Triangles)
			}
			if s := net.Stats(); s != (chaos.Stats{}) {
				t.Fatalf("empty plan injected faults: %+v", s)
			}
		})
	}
}

// innerNet is the transport under the injector: the in-process network, or
// loopback TCP, whose receivers park in Wait instead of spinning.
func innerNet(t *testing.T, tcp bool) transport.Network {
	t.Helper()
	if !tcp {
		return transport.NewChanNetwork(chaosP)
	}
	n, err := transport.NewLoopbackTCPNetwork(chaosP)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestDelayEquivalence: delayed frames are still delivered, so a delay plan
// shorter than the watchdog must change nothing but the wall clock. Over
// TCP a delayed frame never touches the socket, so only the injector's cap
// on Wait wakes the parked receiver for it.
func TestDelayEquivalence(t *testing.T) {
	leakcheck.Check(t)
	for _, tcp := range []bool{false, true} {
		for _, fixture := range []string{"K12", "gnm", "trigrid"} {
			name := fixture
			if tcp {
				name += "/tcp"
			}
			t.Run(name, func(t *testing.T) {
				fx, _ := testgraph.ByName(fixture)
				net := chaos.Wrap(innerNet(t, tcp), chaos.Plan{
					Seed: 7, DelayProb: 0.25, Delay: 2 * time.Millisecond,
				})
				res, err := core.Run(core.AlgoCetric, fx.Build(), chaosCfg(net))
				if err != nil {
					t.Fatalf("delayed run failed: %v", err)
				}
				if res.Count != fx.Triangles {
					t.Fatalf("count = %d, want %d", res.Count, fx.Triangles)
				}
				if net.Stats().Delayed == 0 {
					t.Fatal("plan injected no delays; the scenario tested nothing")
				}
			})
		}
	}
}

// TestWaitWakesForDelayedFrame: the injector is a Waiter exactly when its
// inner transport is, and a receiver parked on it wakes when a held frame
// falls due, though that frame never reaches the inner transport.
func TestWaitWakesForDelayedFrame(t *testing.T) {
	leakcheck.Check(t)
	plan := chaos.Plan{Seed: 3, DelayProb: 1, Delay: 30 * time.Millisecond}
	chanEp, _ := chaos.Wrap(transport.NewChanNetwork(2), plan).Endpoint(1)
	if _, ok := chanEp.(transport.Waiter); ok {
		t.Fatal("a chaos endpoint over the chan network looks like a Waiter")
	}
	tcpInner, err := transport.NewLoopbackTCPNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	net := chaos.Wrap(tcpInner, plan)
	defer net.Close()
	src, _ := net.Endpoint(0)
	dst, _ := net.Endpoint(1)
	w, ok := dst.(transport.Waiter)
	if !ok {
		t.Fatal("a chaos endpoint over TCP hides the inner Wait")
	}
	if err := src.Send(1, []uint64{5}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	w.Wait(time.Minute)
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("parked receiver woke %v after the send; the held frame was due after %v", took, plan.Delay)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if f, ok := dst.Recv(); ok {
			if f.Words[0] != 5 {
				t.Fatalf("frame = %v, want [5]", f.Words)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("delayed frame never delivered")
		}
		w.Wait(time.Millisecond)
	}
	if net.Stats().Delayed != 1 {
		t.Fatalf("Delayed = %d, want 1", net.Stats().Delayed)
	}
}

// schedule is one (algorithm, pipeline schedule, transport) cell a fault is
// driven through; the grid's default is barriered CETRIC over the in-process
// network.
type schedule struct {
	algo    core.Algorithm
	overlap bool
	threads int  // 0: the default, no workers
	tcp     bool // loopback TCP under the injector
	approx  bool // RunApproxCetric (the CETRIC pipeline shipping filters); only for faults that must abort
}

// approxCetric is the approximate run's cell.
var approxCetric = schedule{algo: core.AlgoCetric, approx: true}

var barrieredCetric = schedule{algo: core.AlgoCetric}

// withTK2D adds the 2D backend's blocking and pipelined broadcast rounds to
// the default cell.
var withTK2D = []schedule{barrieredCetric, {algo: core.AlgoTK2D}, {algo: core.AlgoTK2D, overlap: true}}

func (s schedule) String() string {
	name := string(s.algo)
	if s.overlap {
		name += "+overlap"
	}
	if s.threads > 1 {
		name += fmt.Sprintf("+t%d", s.threads)
	}
	if s.tcp {
		name += "+tcp"
	}
	if s.approx {
		name += "+approx"
	}
	return name
}

// typedAbort asserts that a faulted run did not silently succeed and that
// its error is a typed *dist.RunError.
func typedAbort(t *testing.T, err error) *dist.RunError {
	t.Helper()
	if err == nil {
		t.Fatal("injected fault, run succeeded anyway")
	}
	var re *dist.RunError
	if !errors.As(err, &re) {
		t.Fatalf("fault surfaced as untyped error %T: %v", err, err)
	}
	return re
}

// runChaos runs one fixture under a fault plan and returns the typed error.
// With mayComplete a run the fault did not stop is accepted — provided it
// returns the fixture's exact count — and reported as a nil error.
func runChaos(t *testing.T, fixture string, plan chaos.Plan, sched schedule, mayComplete bool) (*chaos.Network, *dist.RunError) {
	t.Helper()
	fx, ok := testgraph.ByName(fixture)
	if !ok {
		t.Fatalf("unknown fixture %q", fixture)
	}
	net := chaos.Wrap(innerNet(t, sched.tcp), plan)
	cfg := chaosCfg(net)
	cfg.Overlap = sched.overlap
	cfg.Threads = sched.threads
	if sched.approx {
		_, err := core.RunApproxCetric(fx.Build(), cfg, core.AMQConfig{})
		return net, typedAbort(t, err)
	}
	res, err := core.Run(sched.algo, fx.Build(), cfg)
	if err == nil && mayComplete {
		if res.Count != fx.Triangles {
			t.Fatalf("injected fault, run returned the wrong count %d, want %d", res.Count, fx.Triangles)
		}
		return net, nil
	}
	return net, typedAbort(t, err)
}

// TestFaultGrid drives every injected fault mode through a full distributed
// counting run and asserts it ends in a typed, correctly attributed error —
// the recovery half of the harness's contract. Scenarios share the fixture
// grid so each fault is exercised against distinct traffic shapes.
func TestFaultGrid(t *testing.T) {
	leakcheck.Check(t)
	fixtures := []string{"K12", "gnm", "rgg"}

	scenarios := []struct {
		name string
		plan chaos.Plan
		// want is the set of acceptable causes; an injected fault may
		// legitimately surface through more than one detector (e.g. a
		// duplicated control frame can corrupt a collective before the
		// termination counters diverge), but it must always land on one of
		// the typed causes below — never a hang, never an untyped error.
		want []dist.AbortCause
		// check inspects the unwrapped cause further.
		check func(t *testing.T, re *dist.RunError)
		// schedules lists the cells the fault runs through (nil: barriered
		// CETRIC only).
		schedules []schedule
		// mayComplete: the fault can miss everything that matters, and a run
		// that then returns the exact count has kept the contract.
		mayComplete bool
	}{
		{
			name: "drop",
			plan: chaos.Plan{Seed: 11, DropProb: 0.2},
			// A dropped data frame leaves sent>recv forever: the termination
			// detector can never equalize, so the watchdog is the detector.
			want: []dist.AbortCause{dist.CauseWatchdog},
			check: func(t *testing.T, re *dist.RunError) {
				var wd *comm.WatchdogError
				if !errors.As(re, &wd) {
					t.Fatalf("no WatchdogError in chain: %v", re)
				}
			},
			schedules: withTK2D,
		},
		{
			name: "corrupt",
			plan: chaos.Plan{Seed: 13, CorruptProb: 0.3},
			want: []dist.AbortCause{dist.CauseCorrupt},
			check: func(t *testing.T, re *dist.RunError) {
				var cf *comm.CorruptFrameError
				if !errors.As(re, &cf) {
					t.Fatalf("no CorruptFrameError in chain: %v", re)
				}
			},
			// The 2D cells: a block broadcast that does not decode is typed
			// like a queue frame that does not. So is a frame carrying the
			// approximate run's filter records.
			schedules: []schedule{barrieredCetric, {algo: core.AlgoTK2D}, {algo: core.AlgoTK2D, overlap: true}, approxCetric},
		},
		{
			name: "duplicate",
			// Duplication inflates recv past sent (data) or replays control
			// tags into later epochs; either way the run must end typed. When
			// every duplicated frame happens to be a control frame whose
			// replay nothing reads, the run completes — correctly, or the
			// cell fails.
			plan:        chaos.Plan{Seed: 17, DupProb: 0.3},
			want:        []dist.AbortCause{dist.CauseWatchdog, dist.CauseBody, dist.CauseCorrupt},
			mayComplete: true,
		},
		{
			name: "crash-panic",
			// CrashAfter is small so the crash lands mid-protocol even on the
			// fastest fixture (a K12 run makes only a few dozen transport ops
			// per rank); a trigger past the run's natural op count would
			// never fire.
			plan: chaos.Plan{Seed: 19, CrashRank: 1, CrashAfter: 5, CrashPanic: true},
			want: []dist.AbortCause{dist.CauseBody},
			check: func(t *testing.T, re *dist.RunError) {
				var ce *chaos.CrashError
				if !errors.As(re, &ce) {
					t.Fatalf("no CrashError in chain: %v", re)
				}
				if re.Rank != 1 || ce.Rank != 1 {
					t.Fatalf("crash attributed to rank %d/%d, want 1", re.Rank, ce.Rank)
				}
			},
		},
		{
			name: "crash-silent",
			plan: chaos.Plan{Seed: 23, CrashRank: 1, CrashAfter: 5,
				DetectAfter: 30 * time.Millisecond},
			want: []dist.AbortCause{dist.CausePeerLoss},
			// Both algorithms under both schedules of the one counting
			// pipeline: eager flushes and between-chunk polls must not change
			// how a lost peer surfaces. The worker cells add the leak half of
			// the contract: an abort must not strand workers on the shipment
			// channel or the steal deque. The TCP cell has the survivors
			// parked in Wait, not spinning, when the crash is detected. The
			// approximate cell is the same pipeline shipping filters.
			schedules: []schedule{barrieredCetric, {algo: core.AlgoCetric, overlap: true},
				{algo: core.AlgoDiTric}, {algo: core.AlgoDiTric, overlap: true},
				{algo: core.AlgoCetric, threads: 2}, {algo: core.AlgoDiTric, overlap: true, threads: 2},
				{algo: core.AlgoTK2D}, {algo: core.AlgoTK2D, overlap: true},
				{algo: core.AlgoCetric, tcp: true}, approxCetric},
			check: func(t *testing.T, re *dist.RunError) {
				var pl *comm.ErrPeerLost
				if !errors.As(re, &pl) {
					t.Fatalf("no ErrPeerLost in chain: %v", re)
				}
				if pl.Rank != 1 {
					t.Fatalf("peer loss blamed rank %d, want 1", pl.Rank)
				}
			},
		},
		{
			name: "partition",
			plan: chaos.Plan{Seed: 29, Partition: [][]int{{0, 1}, {2, 3}},
				DetectAfter: 30 * time.Millisecond},
			want: []dist.AbortCause{dist.CausePeerLoss},
			check: func(t *testing.T, re *dist.RunError) {
				var pl *comm.ErrPeerLost
				if !errors.As(re, &pl) {
					t.Fatalf("no ErrPeerLost in chain: %v", re)
				}
				var pd *transport.PeerDownError
				if !errors.As(re, &pd) || pd.Reason != "chaos: network partition" {
					t.Fatalf("peer-down reason not attributed to the partition: %v", re)
				}
			},
		},
		{
			name: "long-delay",
			// Delay far beyond the watchdog: frames exist but arrive too
			// late, the canonical silent-stall scenario.
			plan: chaos.Plan{Seed: 31, DelayProb: 1, Delay: time.Hour},
			want: []dist.AbortCause{dist.CauseWatchdog},
		},
	}

	for _, sc := range scenarios {
		if sc.schedules == nil {
			sc.schedules = []schedule{barrieredCetric}
		}
		for _, sched := range sc.schedules {
			for _, fixture := range fixtures {
				name := sc.name + "/" + fixture
				if sched != barrieredCetric {
					name += "/" + sched.String()
				}
				t.Run(name, func(t *testing.T) {
					start := time.Now()
					_, re := runChaos(t, fixture, sc.plan, sched, sc.mayComplete)
					if took := time.Since(start); took > 15*time.Second {
						t.Fatalf("recovery took %v; the deadline machinery is not bounding the run", took)
					}
					if re == nil {
						return // completed with the exact count (mayComplete)
					}
					ok := false
					for _, c := range sc.want {
						if re.Cause == c {
							ok = true
						}
					}
					if !ok {
						t.Fatalf("cause = %s, want one of %v (err: %v)", re.Cause, sc.want, re)
					}
					if sc.check != nil {
						sc.check(t, re)
					}
				})
			}
		}
	}
}

// TestTK2DCorruptBlockIsTyped: under the raw codec a corrupted broadcast
// still decodes to words, so it is the block decoder that rejects it (the
// frame no longer names the bands this round expects) — and that rejection
// must surface as the same typed corrupt-frame cause, blaming a sender.
func TestTK2DCorruptBlockIsTyped(t *testing.T) {
	leakcheck.Check(t)
	fx, _ := testgraph.ByName("rgg")
	cfg := chaosCfg(chaos.Wrap(transport.NewChanNetwork(chaosP), chaos.Plan{Seed: 13, CorruptProb: 1}))
	cfg.Codec = core.CodecRaw
	_, err := core.Run(core.AlgoTK2D, fx.Build(), cfg)
	re := typedAbort(t, err)
	var cf *comm.CorruptFrameError
	if re.Cause != dist.CauseCorrupt || !errors.As(re, &cf) {
		t.Fatalf("cause = %s, want %s with a CorruptFrameError in the chain (err: %v)", re.Cause, dist.CauseCorrupt, re)
	}
	if cf.Src < 0 || cf.Src >= chaosP || cf.Src == re.Rank {
		t.Fatalf("corrupt block blamed on rank %d by rank %d", cf.Src, re.Rank)
	}
}

// TestStreamSilentCrash: the streaming entry point arms the same watchdogs
// as the one-shot driver. The victim's crash is never reported by the
// transport (DetectAfter < 0), so only the communication deadline can end
// the run — typed, in bounded time, with the batch feeder released.
func TestStreamSilentCrash(t *testing.T) {
	leakcheck.Check(t)
	fx, _ := testgraph.ByName("rgg")
	g := fx.Build()
	edges := g.Edges()
	net := chaos.Wrap(transport.NewChanNetwork(chaosP), chaos.Plan{
		Seed: 43, CrashRank: 1, CrashAfter: 5, DetectAfter: -1,
	})
	start := time.Now()
	_, err := core.RunStream(core.AlgoCetric, uint64(g.NumVertices()),
		core.SliceBatches(edges[:len(edges)/2], 256), core.SliceBatches(edges[len(edges)/2:], 256), chaosCfg(net))
	re := typedAbort(t, err)
	if took := time.Since(start); took > 15*time.Second {
		t.Fatalf("recovery took %v; the stream's watchdog is not bounding the run", took)
	}
	if re.Cause != dist.CauseWatchdog {
		t.Fatalf("cause = %s, want %s (err: %v)", re.Cause, dist.CauseWatchdog, re)
	}
}

// TestCrashSilentStats pins the injector's own accounting: the scripted
// crash must be counted exactly once however many ops the victim burns.
func TestCrashSilentStats(t *testing.T) {
	leakcheck.Check(t)
	net, _ := runChaos(t, "K12", chaos.Plan{
		Seed: 37, CrashRank: 2, CrashAfter: 5, DetectAfter: 20 * time.Millisecond,
	}, barrieredCetric, false)
	if got := net.Stats().Crashes; got != 1 {
		t.Fatalf("Crashes = %d, want 1", got)
	}
}

// TestGracefulDegradation: with AllowPartial set, an approximate run that
// loses a peer returns the survivors' partial estimate annotated with the
// abort instead of failing.
func TestGracefulDegradation(t *testing.T) {
	leakcheck.Check(t)
	fx, _ := testgraph.ByName("rgg")
	net := chaos.Wrap(transport.NewChanNetwork(chaosP), chaos.Plan{
		Seed: 41, CrashRank: 3, CrashAfter: 10, DetectAfter: 30 * time.Millisecond,
	})
	cfg := chaosCfg(net)
	cfg.AllowPartial = true
	est, res, err := core.RunDoulion(core.AlgoCetric, fx.Build(), cfg, 0.8, 5)
	if err != nil {
		t.Fatalf("degraded run failed outright: %v", err)
	}
	if res.Partial == nil {
		t.Fatal("peer loss with AllowPartial produced no Partial annotation")
	}
	var re *dist.RunError
	if !errors.As(res.Partial.Err, &re) || re.Cause != dist.CausePeerLoss {
		t.Fatalf("Partial.Err = %v, want a peer-loss RunError", res.Partial.Err)
	}
	if f := res.Partial.Fraction(); f < 0 || f >= 1 {
		t.Fatalf("completion fraction = %v, want [0,1) for a crashed cluster", f)
	}
	if est < 0 {
		t.Fatalf("estimate = %v, want a non-negative lower bound", est)
	}
	// A fault-free run under the same config must not be annotated.
	clean := chaosCfg(chaos.Wrap(transport.NewChanNetwork(chaosP), chaos.Plan{}))
	clean.AllowPartial = true
	_, res2, err := core.RunDoulion(core.AlgoCetric, fx.Build(), clean, 0.8, 5)
	if err != nil {
		t.Fatalf("clean run failed: %v", err)
	}
	if res2.Partial != nil {
		t.Fatalf("clean run annotated as partial: %+v", res2.Partial)
	}
}

// TestPartialCountIsLowerBound: every queue frame arrives corrupt, so the
// run can only abort from a PE's global phase — after that PE's
// communication-free local stage published its snapshot — and no type-3
// triangle is ever counted. The degraded merge must therefore be > 0 and at
// most the type-1 + type-2 total (siblings still leaving the pre-count
// barrier when the abort lands contribute nothing), under both schedules of
// the pipeline.
func TestPartialCountIsLowerBound(t *testing.T) {
	leakcheck.Check(t)
	fx, _ := testgraph.ByName("rmat")
	g := fx.Build()
	clean, err := core.Run(core.AlgoCetric, g, core.Config{P: chaosP})
	if err != nil {
		t.Fatal(err)
	}
	local := clean.TypeCounts[0] + clean.TypeCounts[1]
	if local == 0 || local >= fx.Triangles {
		t.Fatalf("fixture has %d of %d triangles local; the scenario needs some of each", local, fx.Triangles)
	}
	for _, overlap := range []bool{false, true} {
		t.Run(schedule{algo: core.AlgoCetric, overlap: overlap}.String(), func(t *testing.T) {
			net := chaos.Wrap(transport.NewChanNetwork(chaosP), chaos.Plan{Seed: 47, CorruptProb: 1})
			cfg := chaosCfg(net)
			cfg.AllowPartial = true
			cfg.Overlap = overlap
			res, err := core.Run(core.AlgoCetric, g, cfg)
			if err != nil {
				t.Fatalf("degraded run failed outright: %v", err)
			}
			var re *dist.RunError
			if res.Partial == nil || !errors.As(res.Partial.Err, &re) || re.Cause != dist.CauseCorrupt {
				t.Fatalf("Partial = %+v, want a corrupt-frame annotation", res.Partial)
			}
			if res.Count == 0 || res.Count > local {
				t.Fatalf("partial count = %d, want in (0, %d] (local-stage triangles; %d in total)", res.Count, local, fx.Triangles)
			}
		})
	}
}

// TestBodyErrorNotDegraded: AllowPartial must never swallow the body's own
// failure — only infrastructure causes degrade.
func TestBodyErrorNotDegraded(t *testing.T) {
	leakcheck.Check(t)
	_, err := dist.Run(dist.Config{P: 2}, func(pe *dist.PE) error {
		if pe.Rank == 1 {
			return errors.New("application bug")
		}
		pe.C.Barrier()
		return nil
	})
	var re *dist.RunError
	if !errors.As(err, &re) || re.Cause != dist.CauseBody {
		t.Fatalf("err = %v, want a body-cause RunError", err)
	}
}
