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
//     all-to-all), and optional grid-based indirect routing
//     (Options.Indirect; the paper's DITRIC2).
//   - CETRIC: a contraction-based two-phase variant that finds every
//     triangle with at most one remote corner locally and communicates only
//     the cut graph (CETRIC2 with Options.Indirect).
//
// The package also ships the baselines the paper compares against (TriC,
// a HavoqGT-style vertex-centric counter, and the unbuffered edge iterator,
// which is DITRIC with Options.Threshold = 1), the
// approximate extensions (Bloom-filter neighborhoods, DOULION, colorful
// sparsification), KAGEN-style graph generators, and an α+β network cost
// model. PEs run as goroutines over an in-process transport by default; a
// TCP transport (see internal/transport) runs real multi-process clusters.
//
// Quick start (compiles verbatim; covered by Example_quickstart):
//
//	g := tricount.GenerateRGG2D(1<<12, 16, 42)
//	res, err := tricount.Count(g, tricount.AlgoCetric, tricount.Options{P: 8})
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

// The available algorithms. The paper's DITRIC2 and CETRIC2 are AlgoDiTric
// and AlgoCetric with Options.Indirect.
const (
	AlgoDiTric = core.AlgoDiTric
	AlgoCetric = core.AlgoCetric
	AlgoTriC   = core.AlgoTriC  // baseline: static buffers, no orientation
	AlgoHavoq  = core.AlgoHavoq // baseline: vertex-centric wedge visitors
	// AlgoTK2D is the 2D grid-partitioned backend (Tom & Karypis): the
	// oriented adjacency matrix is cut into an r×c block grid and counted in
	// lcm(r,c) broadcast rounds along grid rows and columns. Any number of
	// PEs works (a square p gives the classic √p×√p grid); communication
	// volume is O(|E|/√p) per PE regardless of the cut structure — see the
	// README's 2D backend section for when it beats the 1D counters.
	AlgoTK2D = core.AlgoTK2D
)

// Options configures a run; see core.Config for the field documentation.
// P, the number of PEs, is required.
type Options = core.Config

// Result is re-exported from the core engine; see core.Result for the full
// field documentation (count, per-type counts, Δ/LCC vectors, per-PE
// communication metrics, per-phase times).
type Result = core.Result

// Count runs algo on g with opt and returns the merged result.
func Count(g *Graph, algo Algorithm, opt Options) (*Result, error) {
	return core.Run(algo, g, opt)
}

// BatchSource yields successive edge batches of a stream; returning nil or
// an empty batch ends the source.
type BatchSource = core.BatchSource

// StreamResult reports a streaming run: the initial count, the per-batch
// triangle deltas, and the final count.
type StreamResult = core.StreamResult

// Stream counts g's triangles through the streaming driver: the first batch
// of g's edges seeds the incrementally built initial graph, the remaining
// batches are inserted one by one and delta-counted as tri(G+Δ) − tri(G)
// without recounting. batch is the edge batch size; ≤ 0 picks
// max(1024, m/8). The final count is identical to Count; per-PE memory
// stays O(|E_i| + batch) end to end. DITRIC/CETRIC only; LCC is not
// supported while streaming.
func Stream(g *Graph, algo Algorithm, opt Options, batch int) (*StreamResult, error) {
	initial, inserts, _ := core.SplitStream(g.Edges(), batch)
	return core.RunStream(algo, uint64(g.NumVertices()), initial, inserts, opt)
}

// StreamEdges counts triangles of a streamed edge list on n vertices:
// initial's batches build the starting graph, then each batch of inserts is
// delta-counted. Either source may be nil. Duplicate edges and self-loops
// are dropped exactly like FromEdges drops them.
func StreamEdges(n int, algo Algorithm, initial, inserts BatchSource, opt Options) (*StreamResult, error) {
	return core.RunStream(algo, uint64(n), initial, inserts, opt)
}

// CountSeq counts triangles sequentially (EDGE ITERATOR / COMPACT-FORWARD).
func CountSeq(g *Graph) uint64 { return core.SeqCount(g) }

// LCCSeq returns the exact local clustering coefficient of every vertex,
// computed sequentially.
func LCCSeq(g *Graph) []float64 { return core.SeqLCC(g) }

// LCC computes local clustering coefficients distributedly with algo
// (DITRIC/CETRIC only).
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

// ApproxOptions configures the Bloom-filter approximate global phase:
// filter bits per neighbor (default 8), the cache-efficient blocked filter,
// and the truthful estimator that subtracts expected false positives.
type ApproxOptions = core.AMQConfig

// ApproxResult is re-exported from the core engine.
type ApproxResult = core.ApproxResult

// CountApprox runs the AMQ-approximate CETRIC: exact type-1/2 counting plus
// Bloom-filter-approximated type-3 counting. It is the CETRIC counting
// pipeline with filters in place of the shipped neighborhoods, so
// Options.Threads and Options.Overlap select its schedule as they do for
// Count, and Options.LCC adds per-vertex estimates.
func CountApprox(g *Graph, opt Options, aopt ApproxOptions) (*ApproxResult, error) {
	return core.RunApproxCetric(g, opt, aopt)
}

// CountDoulion estimates the triangle count with DOULION edge sampling at
// probability q on top of algo.
func CountDoulion(g *Graph, algo Algorithm, opt Options, q float64, seed uint64) (float64, error) {
	est, _, err := core.RunDoulion(algo, g, opt, q, seed)
	return est, err
}

// CountColorful estimates the triangle count with colorful sparsification
// (ncolors colors) on top of algo.
func CountColorful(g *Graph, algo Algorithm, opt Options, ncolors int, seed uint64) (float64, error) {
	est, _, err := core.RunColorful(algo, g, opt, ncolors, seed)
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
// of two; a shift that takes the size outside 2^0..2^30 vertices is an
// error.
func Instance(name string, scaleShift int, seed uint64) (*Graph, error) {
	return gen.ByInstance(name, scaleShift, seed)
}
