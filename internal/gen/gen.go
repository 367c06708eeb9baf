package gen

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"

	"repro/internal/graph"
)

// ByFamily builds a synthetic graph from one of the paper's weak-scaling
// families by name: "gnm", "rmat", "rgg2d", "rhg". n is the number of
// vertices; edgeFactor the target m/n ratio (the paper uses 16). Negative
// sizes are an error; edge factor 0 gives the edgeless graph. So is a size
// past maxUnits, reported before anything is allocated.
func ByFamily(family string, n, edgeFactor int, seed uint64) (*graph.Graph, error) {
	if n < 0 || edgeFactor < 0 {
		return nil, fmt.Errorf("gen: %s needs n ≥ 0 and edge factor ≥ 0, got n=%d, edge factor %d", family, n, edgeFactor)
	}
	verts := uint64(n)
	switch family {
	case "gnm", "rgg2d", "rhg":
	case "rmat":
		verts = 1 << bits.Len64(uint64(max(n, 1)-1)) // n rounded up to 2^scale
	default:
		return nil, fmt.Errorf("gen: unknown family %q (want gnm|rmat|rgg2d|rhg)", family)
	}
	if verts > maxUnits || edgeFactor > 0 && verts > 0 && uint64(edgeFactor) > maxUnits/verts {
		return nil, fmt.Errorf("gen: %s with n=%d and edge factor %d is too large: its vertex count (%d) and vertex count × edge factor must each be at most %d",
			family, n, edgeFactor, verts, maxUnits)
	}
	switch family {
	case "gnm":
		return GNM(n, edgeFactor*n, seed), nil
	case "rmat":
		cfg := DefaultRMAT(bits.Len64(verts-1), seed)
		cfg.EdgeFactor = edgeFactor
		return RMAT(cfg), nil
	case "rgg2d":
		return RGG2D(n, edgeFactor, seed), nil
	case "rhg":
		return RHG(RHGConfig{N: n, AvgDegree: 2 * float64(edgeFactor), Gamma: 2.8, Seed: seed}), nil
	}
	panic("gen: family " + family + " passed the size check but has no generator")
}

// maxUnits bounds a family's vertex count and its vertex count times edge
// factor, the size of its edge list: at 16 B per edge that list must stay
// addressable, within int on 32-bit hosts and within the runtime's 2⁴⁸ B
// heap on 64-bit ones. Past it, n·edgeFactor could overflow int and R-MAT's
// scale could pass the word size.
const maxUnits = min(math.MaxInt/16, 1<<44)

// genChunk is the most items (vertices, or R-MAT samples) one chunk of a
// generator's work covers, whatever the worker count.
const genChunk = 1024

// threads, when positive, overrides the generators' worker count; the
// tests set it to show that no graph depends on it.
var threads = 0

// workers returns the number of workers the generators split their work
// over: runtime.GOMAXPROCS(0), unless threads says otherwise.
func workers() int {
	if threads > 0 {
		return threads
	}
	return runtime.GOMAXPROCS(0)
}

// inOrder runs fn over [0, n) in chunks of genChunk items, the last one
// shorter, on the workers and returns the chunks' results in the order of
// their ranges, whatever order they ran in. Each chunk runs on the worker
// whose range holds its start, so the chunks do not depend on how
// ParallelFor splits [0, n). fn receives the worker index, for per-worker
// scratch.
func inOrder[R any](n int, fn func(worker, lo, hi int) R) []R {
	out := make([]R, (n+genChunk-1)/genChunk)
	graph.ParallelFor(workers(), n, func(worker, lo, end int) {
		for c := (lo + genChunk - 1) / genChunk; c*genChunk < end; c++ {
			out[c] = fn(worker, c*genChunk, min((c+1)*genChunk, n))
		}
	})
	return out
}

// scanVertices runs a scan for every vertex u of [0, n), in chunks on the
// workers, and builds the graph of the edges {u, v} for the neighbours v it
// appends: u's run, which must ascend strictly, all above u. scanFrom(lo)
// returns the scan of the chunk that starts at vertex lo, which is then
// called for each vertex of the chunk in ascending order, so it may carry
// state from one vertex to the next. Each chunk keeps its runs in a copy of
// exactly their length, and graph.FromRuns assembles the CSR from the
// chunks as they are, with no edge list.
func scanVertices(n int, scanFrom func(lo int) func(u int, nbrs []graph.Vertex) []graph.Vertex) *graph.Graph {
	runLen := make([]int, n)
	bufs := make([][]graph.Vertex, workers())
	runs := inOrder(n, func(worker, lo, hi int) []graph.Vertex {
		nbrs := bufs[worker][:0]
		scan := scanFrom(lo)
		for u := lo; u < hi; u++ {
			k := len(nbrs)
			nbrs = scan(u, nbrs)
			runLen[u] = len(nbrs) - k
		}
		bufs[worker] = nbrs
		return slices.Clone(nbrs)
	})
	return graph.FromRuns(n, genChunk, runLen, runs)
}
