// Package core implements the paper's triangle counting algorithms: the
// sequential EDGE ITERATOR base, the distributed DITRIC and CETRIC (with and
// without grid-indirect communication, Config.Indirect), the competitor
// baselines TriC and a HavoqGT-style vertex-centric counter, the unbuffered
// baseline of Fig. 2 (DITRIC with Config.Threshold = 1), and the extensions of §IV-E (local clustering coefficients, triangle
// enumeration, AMQ-approximate counting) plus the classic approximation
// baselines DOULION and colorful sparsification.
package core

import (
	"strings"
	"time"

	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/part"
	"repro/internal/transport"
)

// Algorithm names an exact distributed counting algorithm.
type Algorithm string

// The implemented algorithms. The paper's DITRIC2 and CETRIC2 are DITRIC
// and CETRIC with Config.Indirect; its unbuffered baseline is DITRIC with
// Config.Threshold = 1.
const (
	AlgoDiTric Algorithm = "ditric"
	AlgoCetric Algorithm = "cetric"
	AlgoTriC   Algorithm = "tric"
	AlgoHavoq  Algorithm = "havoq"
	// AlgoTK2D is the 2D grid-partitioned counter à la Tom & Karypis: the
	// oriented adjacency matrix is cut into an r×c block grid (any P ≥ 1;
	// square P gives the classic √p×√p grid) and counting proceeds in
	// lcm(r,c) broadcast rounds along grid rows and columns instead of 1D
	// cut-neighborhood shipping.
	AlgoTK2D Algorithm = "tk2d"
)

// Algorithms lists the 1D distributed algorithms in the order used by the
// paper's figures.
func Algorithms() []Algorithm {
	return []Algorithm{AlgoDiTric, AlgoCetric, AlgoHavoq, AlgoTriC}
}

// Phase names used in Result.Phases, matching Fig. 7's breakdown.
const (
	PhasePreprocess  = "preprocess"
	PhaseLocal       = "local"
	PhaseContraction = "contraction"
	PhaseGlobal      = "global"
	PhasePostprocess = "postprocess"
	// PhaseOverlap exists only as the fold parent of PhaseOverlapIdle: its
	// total is the time a PE spent waiting with nothing to do.
	PhaseOverlap = "overlap"
)

// Preprocessing sub-phases. Each is recorded in Result.Phases under its own
// key AND folded into PhasePreprocess by the stopwatch, so the Fig. 7-style
// total stays comparable across versions while the breakdown shows where
// the pre-count time goes: building the local CSR view, exchanging ghost
// degrees, and orienting the A-lists. PhaseScatter is kept for the report
// schema; no driver scatters inside a timed phase any more, so it reads 0.
const (
	PhaseScatter = PhasePreprocess + "/scatter"
	PhaseBuild   = PhasePreprocess + "/build"
	PhaseDegrees = PhasePreprocess + "/degrees"
	PhaseOrient  = PhasePreprocess + "/orient"
)

// Counting sub-phases of the DITRIC/CETRIC pipeline. The stopwatch folds
// each "parent/sub" key into its parent, so PhaseGlobal keeps its Fig. 7
// meaning (all global-phase work) while the breakdown separates what used
// to be miscounted: the final drain — and, under the overlapped schedule,
// receive-side intersections that run interleaved with the emission —
// land under global/recv, and time a PE spends waiting inside
// the termination detector with nothing to process lands under
// overlap/idle (split out of whatever phase was active — see
// stopwatch.phase), not under local or global compute.
const (
	PhaseGlobalRecv  = PhaseGlobal + "/recv"
	PhaseOverlapIdle = PhaseOverlap + "/idle"
	// PhaseGlobalExchange is TK2D's per-round block broadcast time. Keyed
	// under global/ so the stopwatch's parent-folding lands it in
	// PhaseGlobal, keeping the 1D and 2D phase reports comparable: in both
	// geometries "global" is the communication-driven counting phase, with
	// the sub-key showing how much of it the collective exchange takes.
	PhaseGlobalExchange = PhaseGlobal + "/exchange"
)

// Streaming phases (RunStream). PhaseIngest covers folding the initial
// batches into the resident adjacency (folded into PhasePreprocess, next to
// the build that seals it); the stream/ sub-phases split the per-batch
// insert loop — staging a batch, delta-counting it, merging it into the
// resident rows — and fold into PhaseStream for the total.
const (
	PhaseIngest       = PhasePreprocess + "/ingest"
	PhaseStream       = "stream"
	PhaseStreamStage  = PhaseStream + "/stage"
	PhaseStreamDelta  = PhaseStream + "/delta"
	PhaseStreamCommit = PhaseStream + "/commit"
)

// Config controls a distributed run.
type Config struct {
	P int // number of PEs (required)
	// Threshold is the aggregation threshold δ in words; ≤ 0 chooses
	// O(|E_i|), the paper's linear-memory setting. 1 flushes every record on
	// its own: DITRIC with δ = 1 is Fig. 2's unbuffered baseline.
	Threshold int
	// Indirect routes queue traffic over a logical 2D PE grid (§IV-B):
	// DITRIC and CETRIC with it are the paper's DITRIC2 and CETRIC2.
	Indirect bool
	// Threads is the worker count per PE. It parallelizes preprocessing for
	// every algorithm and selects the thread schedule of the DITRIC/CETRIC
	// counting pipeline: 1 (or less) runs the row sweeps on the PE goroutine
	// and intersects received records inline in the queue handlers; more runs
	// the paper's hybrid mode — workers steal row chunks, ship through the PE
	// goroutine (funneled communication) and drain received records off a
	// steal deque.
	Threads int

	// HubThreshold tunes the adaptive intersection engine: rows whose
	// oriented neighborhood A(v) has at least this many entries get a packed
	// hub bitmap, turning intersections against them into bit tests (and
	// hub ∩ hub into word-AND + popcount). 0 picks
	// graph.DefaultHubMinDegree; negative disables the bitmaps, leaving the
	// branchless-merge and galloping kernels. Total bitmap memory is capped
	// at the size of the A-lists themselves regardless of the threshold.
	// 1D engines only: TK2D stamps a mark per column instead and ignores it.
	HubThreshold int

	// Overlap selects the overlapped schedule of the DITRIC/CETRIC counting
	// pipeline (the baselines ignore it). The default, barriered schedule
	// ships frames only when δ overflows and in the final drain, and polls or
	// steals nothing between row chunks, so local and global work stay
	// separated as in the paper's measured configuration. With Overlap the
	// same pipeline flushes shipments eagerly at a watermark far below δ as
	// row chunks complete, polls the network between chunks, and (with
	// Threads > 1) lets workers steal parked records between chunks —
	// DITRIC's global intersections start before its local phase finishes;
	// CETRIC's interleave with its cut send sweep. It is one pipeline with two schedules, not two code paths:
	// counts, triangle sets and LCC are identical under both.
	//
	// For TK2D the same knob pipelines the round loop: round k+1's row and
	// column broadcasts are posted split-phase (comm.Group.IBcast) before
	// round k's block-local counting drains, making the per-round critical
	// path max(comm, compute) instead of comm + compute. Counts are
	// identical to the blocking schedule.
	Overlap bool

	// Partition overrides the default uniform 1D partition. Only code inside
	// the module can build one (part.New); the placement tests use it to run
	// every schedule on non-uniform, tiny and empty ranges.
	Partition *part.Partition

	// wire, when set, replaces the codec of every queue channel in
	// channelCodecs. Being unexported, only this package's tests set it:
	// they run every algorithm with each codec forced onto every channel to
	// show that no count depends on the codec table.
	wire comm.Codec

	// noSurrogate disables the surrogate dedup of Arifuzzaman et al., so a
	// neighborhood is shipped once per *cut edge* instead of once per
	// destination PE. Like wire it is set only by this package's tests:
	// they show the dedup changes volume, never a count.
	noSurrogate bool

	// LCC additionally computes per-vertex triangle counts and local
	// clustering coefficients (DITRIC/CETRIC only).
	LCC bool
	// Collect gathers every triangle (testing aid; memory O(#triangles)).
	// DITRIC, CETRIC and TK2D only.
	Collect bool

	// Network overrides the in-process transport (e.g. loopback TCP).
	Network transport.Network

	// CommDeadline arms each PE's communication watchdog and RunTimeout
	// bounds the whole cluster run; both are handed straight to the dist
	// runtime (see dist.Config). Zero disables each.
	CommDeadline time.Duration
	RunTimeout   time.Duration
	// AllowPartial degrades instead of failing when the run aborts for an
	// infrastructure cause (peer loss, watchdog, run timeout — never a body
	// error): Run returns the merged count over what the surviving PEs got
	// done, annotated in Result.Partial. The count is a lower bound on the
	// fault-free result — meant for the approximate pipelines
	// (DOULION/colorful), where a degraded run still yields a usable
	// estimate with a widened error bound.
	AllowPartial bool
}

// withDefaults fills derived defaults given the local input size estimate.
func (c Config) withDefaults() Config {
	if c.Threads <= 0 {
		c.Threads = 1
	}
	return c
}

// hubMinDegree maps the HubThreshold knob to the minimum out-degree passed
// to BuildHubs (0 disables the hub index there): negative disables, zero
// picks the engine default.
func (c Config) hubMinDegree() int {
	switch {
	case c.HubThreshold < 0:
		return 0
	case c.HubThreshold == 0:
		return graph.DefaultHubMinDegree
	default:
		return c.HubThreshold
	}
}

// Result reports one distributed run.
type Result struct {
	Count uint64 // number of triangles in the graph

	// TypeCounts splits the count by triangle type (1: all three vertices on
	// one PE, 2: two on one PE, 3: three PEs). Filled by CETRIC; DITRIC fills
	// local (type 1+2 found locally) vs remote counts approximately and the
	// baselines leave it zero.
	TypeCounts [3]uint64

	// Deltas holds per-vertex triangle counts Δ(v) (global indexing) when
	// Config.LCC is set.
	Deltas []uint64
	// LCC holds 2Δ(v)/(d(v)(d(v)−1)) when Config.LCC is set (0 for d < 2).
	LCC []float64

	// Triangles holds every triangle {u≺v≺w by ID} when Config.Collect is
	// set.
	Triangles [][3]graph.Vertex

	// PerPE holds each PE's total communication metrics; Agg the paper-style
	// aggregation (max messages, bottleneck volume).
	PerPE []comm.Metrics
	Agg   comm.Aggregate

	// Phases holds the maximum duration over PEs per phase; PhaseComm the
	// aggregated communication per phase.
	Phases    map[string]time.Duration
	PhaseComm map[string]comm.Aggregate

	// Partial is non-nil when the run degraded under Config.AllowPartial:
	// Count then merges completed PEs' totals with the mid-run snapshots of
	// the PEs that aborted, making it a lower bound on the fault-free count.
	Partial *PartialInfo

	Wall time.Duration
}

// PartialInfo annotates a degraded run: what killed it and how much of the
// cluster finished, so estimator callers can widen their error bounds.
type PartialInfo struct {
	// Err is the abort the run survived — a *dist.RunError whose Unwrap
	// chain reaches the typed comm/transport failure.
	Err error
	// Completed counts PEs whose bodies ran to completion; Count includes
	// their full totals plus only phase-boundary snapshots from the rest.
	Completed int
	// P is the cluster size Completed is out of.
	P int
}

// Fraction is the share of PEs that ran to completion — the crudest usable
// completeness estimate for widening an estimator's error bound.
func (p *PartialInfo) Fraction() float64 {
	if p.P <= 0 {
		return 0
	}
	return float64(p.Completed) / float64(p.P)
}

// peOutcome is what each PE's body produces for the driver to merge.
type peOutcome struct {
	count      uint64
	typeCounts [3]uint64
	triangles  [][3]graph.Vertex
	phases     map[string]time.Duration
	phaseComm  map[string]comm.Metrics

	// Under LCC, Δ (and an approximate run's Δ estimates) of the local rows,
	// which are the vertices [first, first+len(deltas)). amqEst is an
	// approximate run's type-3 estimate (typeCounts[2] its positive probes).
	first    graph.Vertex
	deltas   []uint64
	deltaEst []float64
	amqEst   float64

	// finished marks a body that ran to completion (countState.finish);
	// partialCount is the last coherent count snapshot a body published at a
	// phase boundary before aborting. The driver reads both only after
	// dist.Run has joined every PE goroutine, so plain fields suffice.
	finished     bool
	partialCount uint64
}

func newPEOutcome() *peOutcome {
	return &peOutcome{
		phases:    make(map[string]time.Duration),
		phaseComm: make(map[string]comm.Metrics),
	}
}

// stopwatch splits a PE's run into named phases, recording wall time and the
// communication delta per phase.
type stopwatch struct {
	c   *comm.Comm
	out *peOutcome
	cur string
	t0  time.Time
	m0  comm.Metrics
}

func newStopwatch(c *comm.Comm, out *peOutcome) *stopwatch {
	return &stopwatch{c: c, out: out}
}

// phase closes the current phase (if any) and starts the named one. A phase
// may be re-entered: durations and communication deltas accumulate, which is
// how the overlapped pipeline attributes interleaved local/global work by
// switching back and forth on the PE's main timeline. Two refinements keep
// the attribution honest:
//
//   - any sub-phase key "parent/sub" folds into its parent's totals, so the
//     Fig. 7 breakdown keeps its historical keys (preprocess, global) while
//     the sub-keys show where the time went;
//   - idle time recorded by the termination detector during the phase
//     (Metrics.IdleNs — waiting with no frame to process and no deque work
//     to steal) is split out into PhaseOverlapIdle instead of being
//     miscounted as local or global compute.
func (s *stopwatch) phase(name string) {
	now := time.Now()
	if s.cur != "" {
		d := now.Sub(s.t0)
		m := s.c.M.Sub(s.m0)
		if idle := time.Duration(m.IdleNs); idle > 0 && s.cur != PhaseOverlapIdle {
			if idle > d {
				idle = d // clock-resolution clamp
			}
			d -= idle
			s.out.phases[PhaseOverlapIdle] += idle
			s.out.phases[PhaseOverlap] += idle
		}
		s.out.phases[s.cur] += d
		acc := s.out.phaseComm[s.cur]
		acc.Add(m)
		s.out.phaseComm[s.cur] = acc
		if parent, _, isSub := strings.Cut(s.cur, "/"); isSub {
			s.out.phases[parent] += d
			accP := s.out.phaseComm[parent]
			accP.Add(m)
			s.out.phaseComm[parent] = accP
		}
	}
	s.cur = name
	s.t0 = now
	s.m0 = s.c.M
}

// stop closes the current phase.
func (s *stopwatch) stop() { s.phase("") }
