// Package tricount is a from-scratch Go reproduction of
//
//	Sanders, Uhl: "Engineering a Distributed-Memory Triangle Counting
//	Algorithm", IPDPS 2023 (arXiv:2302.11443).
//
// It counts the triangles of huge undirected graphs — and, optionally, the
// triangles incident to every vertex (local clustering coefficients) — on a
// cluster of processing elements with 1D-partitioned graph data. The two
// main algorithms are:
//
//   - DITRIC: distributed EDGE ITERATOR with degree orientation, dynamic
//     message aggregation with linear memory (an asynchronous sparse
//     all-to-all), and optional grid-based indirect routing (DITRIC2).
//   - CETRIC: a contraction-based two-phase variant that finds every
//     triangle with at most one remote corner locally and communicates only
//     the cut graph (CETRIC2 with indirection).
//
// The package also ships the baselines the paper compares against (TriC,
// a HavoqGT-style vertex-centric counter, an unbuffered edge iterator), the
// approximate extensions (Bloom-filter neighborhoods, DOULION, colorful
// sparsification), KAGEN-style graph generators, and an α+β network cost
// model. PEs run as goroutines over an in-process transport by default; a
// TCP transport (see internal/transport) runs real multi-process clusters.
//
// Quick start (compiles verbatim; covered by Example_quickstart):
//
//	g := tricount.GenerateRGG2D(1<<12, 16, 42)
//	res, err := tricount.Count(g, tricount.AlgoCetric, tricount.Options{PEs: 8})
//	if err != nil {
//		log.Fatal(err)
//	}
//	fmt.Println(res.Count)
//	// Output: 386649
package tricount

import (
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/part"
)

// Graph is an undirected graph in adjacency-array form.
type Graph = graph.Graph

// Vertex is a global vertex identifier.
type Vertex = graph.Vertex

// Edge is an undirected edge between two global vertex IDs.
type Edge = graph.Edge

// FromEdges builds a Graph on n vertices from an edge list, dropping
// self-loops and duplicate edges.
func FromEdges(n int, edges []Edge) *Graph { return graph.FromEdges(n, edges) }

// Algorithm selects a distributed counting algorithm.
type Algorithm = core.Algorithm

// The available algorithms. The "2" variants route messages indirectly over
// a logical 2D PE grid.
const (
	AlgoDiTric  = core.AlgoDiTric
	AlgoDiTric2 = core.AlgoDiTric2
	AlgoCetric  = core.AlgoCetric
	AlgoCetric2 = core.AlgoCetric2
	AlgoTriC    = core.AlgoTriC  // baseline: static buffers, no orientation
	AlgoHavoq   = core.AlgoHavoq // baseline: vertex-centric wedge visitors
	AlgoNoAgg   = core.AlgoNoAgg // baseline: no message aggregation (Fig. 2)
	// AlgoTK2D is the 2D grid-partitioned backend (Tom & Karypis): the
	// oriented adjacency matrix is cut into an r×c block grid and counted in
	// lcm(r,c) broadcast rounds along grid rows and columns. Any number of
	// PEs works (a square p gives the classic √p×√p grid); communication
	// volume is O(|E|/√p) per PE regardless of the cut structure — see the
	// README's 2D backend section for when it beats the 1D counters.
	AlgoTK2D = core.AlgoTK2D
)

// Options configures a run.
type Options struct {
	// PEs is the number of processing elements (required, ≥ 1).
	PEs int
	// Threshold is the aggregation threshold δ in machine words; ≤ 0 picks
	// O(|E_i|), the paper's linear-memory setting.
	Threshold int
	// Indirect forces grid-based indirect delivery even for the non-"2"
	// algorithm names.
	Indirect bool
	// Threads is the number of worker goroutines per PE. It parallelizes
	// the whole preprocessing pipeline (scatter, local CSR build,
	// orientation, contraction, hub bitmaps) for every algorithm, and picks
	// the thread schedule of the DITRIC/CETRIC counting pipeline: ≤ 1 counts
	// on the PE goroutine and intersects received records inline; > 1 is the
	// paper's hybrid mode (chunk-stealing workers, funneled communication,
	// received records drained off a steal deque).
	Threads int
	// Overlap selects the overlapped schedule of the DITRIC/CETRIC counting
	// pipeline (and their indirect variants; the baselines ignore it)
	// instead of the default barriered one: cut-neighborhood shipments flush
	// eagerly as row chunks complete, the network is polled between chunks,
	// and with Threads > 1 the workers steal received records between chunks
	// — global-phase intersections start while the PE is still shipping and
	// stragglers get stolen instead of serialized. Both schedules run the
	// same pipeline, so counts are exactly identical. Per-rank overlap and
	// idle time land in Result.PerPE (OverlapNs/IdleNs) and the overlap/idle
	// sub-phase. For AlgoTK2D the knob pipelines the broadcast rounds.
	Overlap bool
	// LCC additionally computes per-vertex triangle counts Δ(v) and local
	// clustering coefficients (DITRIC/CETRIC only).
	LCC bool
	// Partition overrides the default uniform 1D partition.
	Partition *part.Partition
	// SparseDegreeExchange uses the asynchronous sparse all-to-all for the
	// ghost-degree exchange.
	SparseDegreeExchange bool
	// HubThreshold tunes the adaptive intersection engine: rows whose
	// oriented neighborhood A(v) has at least this many entries carry a
	// packed hub bitmap, turning intersections against them into bit tests
	// (hub ∩ hub into word-AND + popcount). 0 picks the engine default,
	// negative disables the bitmaps; total bitmap memory is always capped at
	// the size of the A-lists themselves. See the README's "hot path &
	// kernel selection" section for tuning guidance. 1D engines only: the 2D
	// backend (TK2D) keeps no hub bitmaps and ignores it.
	HubThreshold int
	// BatchSize is the edge batch granularity of the streaming entry points
	// (Stream); ≤ 0 picks max(1024, m/8). Count ignores it.
	BatchSize int
	// Codec selects the wire codec policy for message payloads. The empty
	// string (or CodecAuto) picks tuned per-channel codecs: sorted
	// adjacency shipments travel delta+varint compressed, small-integer
	// records as varints, high-entropy Bloom/float words raw. CodecRaw
	// restores the uncompressed seed wire format; CodecVarint and
	// CodecDeltaVarint force one codec onto every channel. The policy only
	// changes bytes on the wire (Result.Agg.TotalEncodedBytes vs
	// TotalRawBytes), never any count.
	Codec string
	// Profile names a costmodel network profile ("supercomputer", "cloud",
	// "wan"), or "measured" to calibrate α/β live from the run's own
	// frame-latency samples. When set, the overlapped pipeline derives its
	// eager-flush watermark from the profile's α/β break-even frame size
	// instead of the fixed 1024-word constant (clamped to δ/2 either way).
	// Under "measured" the watermark starts at that fixed constant and
	// re-fits periodically as samples accumulate. It never changes any
	// count, only flush timing.
	Profile string
}

// Wire codec policies for Options.Codec.
const (
	CodecAuto        = core.CodecAuto
	CodecRaw         = core.CodecRaw
	CodecVarint      = core.CodecVarint
	CodecDeltaVarint = core.CodecDeltaVarint
)

// Result is re-exported from the core engine; see core.Result for the full
// field documentation (count, per-type counts, Δ/LCC vectors, per-PE
// communication metrics, per-phase times).
type Result = core.Result

// Partition is a contiguous 1D vertex partition (each PE owns an ID range).
// Build one with PartitionByCost and pass it via Options.Partition.
type Partition = part.Partition

// CostFunc estimates the preprocessing/counting work charged to a vertex of
// degree d; PartitionByCost balances its prefix sums across PEs.
type CostFunc = part.CostFunc

// The cost functions of Arifuzzaman et al., re-exported for PartitionByCost.
var (
	CostDegree   = part.CostDegree   // charge d: balances edges
	CostDegreeSq = part.CostDegreeSq // charge d²: proxy for hub intersection work
	CostWedges   = part.CostWedges   // charge C(d,2): open wedge count
	CostUnit     = part.CostUnit     // charge 1: reduces to the uniform partition
)

// PartitionByCost builds a cost-balanced contiguous 1D partition of g's
// vertices over pes PEs: vertex v goes to the PE whose share of the total
// cost (prefix-sum method) covers it, so ranges stay contiguous and ordered
// as the distributed algorithms require. It wraps the degree scan plus
// part.ByCost that cmd/tricount's -partition flag performs, so library
// users don't have to reimplement it.
func PartitionByCost(g *Graph, pes int, cost CostFunc) *Partition {
	degrees := make([]int, g.NumVertices())
	for v := range degrees {
		degrees[v] = g.Degree(Vertex(v))
	}
	return part.ByCost(degrees, pes, cost)
}

func (o Options) toConfig() core.Config {
	return core.Config{
		P:                    o.PEs,
		Threshold:            o.Threshold,
		Indirect:             o.Indirect,
		Threads:              o.Threads,
		Overlap:              o.Overlap,
		LCC:                  o.LCC,
		Partition:            o.Partition,
		SparseDegreeExchange: o.SparseDegreeExchange,
		HubThreshold:         o.HubThreshold,
		Codec:                o.Codec,
		Profile:              o.Profile,
	}
}

// Count runs algo on g with opt and returns the merged result.
func Count(g *Graph, algo Algorithm, opt Options) (*Result, error) {
	return core.Run(algo, g, opt.toConfig())
}

// BatchSource yields successive edge batches of a stream; returning nil or
// an empty batch ends the source.
type BatchSource = core.BatchSource

// StreamResult reports a streaming run: the initial count, the per-batch
// triangle deltas, and the final count.
type StreamResult = core.StreamResult

// Stream counts g's triangles through the streaming driver: the first
// batches of g's edges (opt.BatchSize each) seed the incrementally built
// initial graph, the remaining batches are inserted one by one and
// delta-counted as tri(G+Δ) − tri(G) without recounting. The final count is
// identical to Count; per-PE memory stays O(|E_i| + batch) end to end.
// DITRIC/CETRIC variants only; LCC is not supported while streaming.
func Stream(g *Graph, algo Algorithm, opt Options) (*StreamResult, error) {
	edges := g.Edges()
	batch := opt.BatchSize
	if batch <= 0 {
		batch = max(1024, len(edges)/8)
	}
	split := min(batch, len(edges))
	return core.RunStream(algo, uint64(g.NumVertices()), core.SliceBatches(edges[:split], batch),
		core.SliceBatches(edges[split:], batch), opt.toConfig())
}

// StreamEdges counts triangles of a streamed edge list on n vertices:
// initial's batches build the starting graph, then each batch of inserts is
// delta-counted. Either source may be nil. Duplicate edges and self-loops
// are dropped exactly like FromEdges drops them.
func StreamEdges(n int, algo Algorithm, initial, inserts BatchSource, opt Options) (*StreamResult, error) {
	return core.RunStream(algo, uint64(n), initial, inserts, opt.toConfig())
}

// CountSeq counts triangles sequentially (EDGE ITERATOR / COMPACT-FORWARD).
func CountSeq(g *Graph) uint64 { return core.SeqCount(g) }

// LCCSeq returns the exact local clustering coefficient of every vertex,
// computed sequentially.
func LCCSeq(g *Graph) []float64 { return core.SeqLCC(g) }

// LCC computes local clustering coefficients distributedly with algo
// (DITRIC/CETRIC variants only).
func LCC(g *Graph, algo Algorithm, opt Options) ([]float64, *Result, error) {
	opt.LCC = true
	res, err := Count(g, algo, opt)
	if err != nil {
		return nil, nil, err
	}
	return res.LCC, res, nil
}

// Enumerate calls fn once per triangle (corners ascending by vertex ID),
// using the sequential counter.
func Enumerate(g *Graph, fn func(a, b, c Vertex)) {
	core.SeqEnumerate(g, func(v, u, w Vertex) {
		t := core.CanonTriangle(v, u, w)
		fn(t[0], t[1], t[2])
	})
}

// ApproxOptions configures the Bloom-filter approximate global phase.
type ApproxOptions struct {
	BitsPerKey float64 // filter bits per neighbor (default 8)
	Blocked    bool    // cache-efficient blocked filter
	Truthful   bool    // subtract expected false positives
}

// ApproxResult is re-exported from the core engine.
type ApproxResult = core.ApproxResult

// CountApprox runs the AMQ-approximate CETRIC: exact type-1/2 counting plus
// Bloom-filter-approximated type-3 counting. It is the CETRIC counting
// pipeline with filters in place of the shipped neighborhoods, so
// Options.Threads and Options.Overlap select its schedule as they do for
// Count, and Options.LCC adds per-vertex estimates.
func CountApprox(g *Graph, opt Options, aopt ApproxOptions) (*ApproxResult, error) {
	return core.RunApproxCetric(g, opt.toConfig(), core.AMQConfig{
		BitsPerKey: aopt.BitsPerKey,
		Blocked:    aopt.Blocked,
		Truthful:   aopt.Truthful,
	})
}

// CountDoulion estimates the triangle count with DOULION edge sampling at
// probability q on top of algo.
func CountDoulion(g *Graph, algo Algorithm, opt Options, q float64, seed uint64) (float64, error) {
	est, _, err := core.RunDoulion(algo, g, opt.toConfig(), q, seed)
	return est, err
}

// CountColorful estimates the triangle count with colorful sparsification
// (ncolors colors) on top of algo.
func CountColorful(g *Graph, algo Algorithm, opt Options, ncolors int, seed uint64) (float64, error) {
	est, _, err := core.RunColorful(algo, g, opt.toConfig(), ncolors, seed)
	return est, err
}

// Generator conveniences (see internal/gen for the full catalog).

// GenerateGNM samples an Erdős–Rényi G(n,m) graph.
func GenerateGNM(n, m int, seed uint64) *Graph { return gen.GNM(n, m, seed) }

// GenerateRMAT samples a Graph 500 R-MAT graph with 2^scale vertices.
func GenerateRMAT(scale, edgeFactor int, seed uint64) *Graph {
	cfg := gen.DefaultRMAT(scale, seed)
	cfg.EdgeFactor = edgeFactor
	return gen.RMAT(cfg)
}

// GenerateRGG2D samples a 2D random geometric graph with ~edgeFactor·n edges.
func GenerateRGG2D(n, edgeFactor int, seed uint64) *Graph { return gen.RGG2D(n, edgeFactor, seed) }

// GenerateRHG samples a random hyperbolic graph (power-law exponent gamma).
func GenerateRHG(n int, avgDegree, gamma float64, seed uint64) *Graph {
	return gen.RHG(gen.RHGConfig{N: n, AvgDegree: avgDegree, Gamma: gamma, Seed: seed})
}

// Instance builds one of the paper's real-world stand-in instances by name
// (live-journal, orkut, twitter, friendster, uk-2007-05, webbase-2001, usa,
// europe). scaleShift shrinks (<0) or grows (>0) the default size by powers
// of two.
func Instance(name string, scaleShift int, seed uint64) (*Graph, error) {
	return gen.ByInstance(name, scaleShift, seed)
}
