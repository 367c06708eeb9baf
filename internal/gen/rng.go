// Package gen provides deterministic, seedable graph generators covering the
// families the paper evaluates: Erdős–Rényi G(n,m), R-MAT with Graph 500
// probabilities, 2D random geometric graphs, and random hyperbolic graphs
// (KAGEN's models), plus a clustered web model, a road-network model and
// deterministic graphs with closed-form triangle counts for testing.
//
// Like KAGEN's communication-free generators, each piece of a graph is
// derived from the seed alone, so the pieces can be made in any order:
// R-MAT, RGG2D and RHG split their work into fixed chunks (of samples, or
// of vertices) that run on runtime.GOMAXPROCS(0) workers and join in chunk
// order. An R-MAT chunk jumps ahead to its own point of the one SplitMix64
// stream, because every sample draws the same number of values; an RGG2D
// or RHG chunk scans its vertices' neighbourhoods, which depend only on the
// points. G(n,m) keeps one sequential stream, as its accept/reject sequence
// depends on every earlier draw. graph.FromEdges then sorts the rows by
// counting passes (rows that arrive out of order) or one by one (rows that
// arrive sorted), with 4 B of scratch per adjacency entry. Every graph is
// bit-identical at any worker count: the tests pin each family's CSR
// fingerprint at 1, 2, 3 and 8 workers.
package gen

// SplitMix64 is a tiny, fast, well-distributed PRNG. It is the standard
// seeding generator of the xoshiro family and is fully deterministic given
// its seed, which keeps every experiment reproducible.
type SplitMix64 struct {
	state uint64
}

// NewRNG returns a SplitMix64 seeded with seed.
func NewRNG(seed uint64) *SplitMix64 { return &SplitMix64{state: seed} }

// splitMixGamma is SplitMix64's state increment: the state after k draws
// from seed s is s + k·splitMixGamma, which is what lets a generator jump
// ahead to any point of its stream.
const splitMixGamma = 0x9E3779B97F4A7C15

// Next returns the next 64 random bits.
func (r *SplitMix64) Next() uint64 {
	r.state += splitMixGamma
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Float64 returns a uniform float in [0,1) with 53 bits of precision.
func (r *SplitMix64) Float64() float64 {
	return float64(r.Next()>>11) / (1 << 53)
}

// Uint64n returns a uniform integer in [0,n). n must be positive.
func (r *SplitMix64) Uint64n(n uint64) uint64 {
	// Lemire's nearly-divisionless method would be overkill here; simple
	// rejection keeps the distribution exactly uniform.
	mask := ^uint64(0)
	if n&(n-1) == 0 { // power of two
		return r.Next() & (n - 1)
	}
	limit := mask - mask%n
	for {
		v := r.Next()
		if v < limit {
			return v % n
		}
	}
}

// Hash64 is a stateless splitmix-style hash of (seed, i); generators use it
// to derive per-vertex or per-chunk randomness without shared state, which is
// what makes communication-free distributed generation possible.
func Hash64(seed, i uint64) uint64 {
	z := seed ^ (i+1)*splitMixGamma
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// HashFloat64 maps Hash64 output to [0,1).
func HashFloat64(seed, i uint64) float64 {
	return float64(Hash64(seed, i)>>11) / (1 << 53)
}
