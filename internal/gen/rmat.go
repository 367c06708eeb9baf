package gen

import (
	"math"

	"repro/internal/graph"
)

// Graph 500 R-MAT probabilities (a,b,c,d), the defaults the paper uses.
const (
	RMATDefaultA = 0.57
	RMATDefaultB = 0.19
	RMATDefaultC = 0.19
	RMATDefaultD = 0.05
)

// RMATConfig parameterizes the recursive matrix model.
type RMATConfig struct {
	Scale      int     // n = 2^Scale vertices
	EdgeFactor int     // edges generated = EdgeFactor * n (before dedup)
	A, B, C, D float64 // quadrant probabilities, summing to 1
	Seed       uint64
	Scramble   bool // permute vertex IDs to break the generator's ID locality
}

// DefaultRMAT returns the Graph 500 configuration: 16 edges per vertex,
// standard probabilities, scrambled IDs.
func DefaultRMAT(scale int, seed uint64) RMATConfig {
	return RMATConfig{
		Scale: scale, EdgeFactor: 16,
		A: RMATDefaultA, B: RMATDefaultB, C: RMATDefaultC, D: RMATDefaultD,
		Seed: seed, Scramble: true,
	}
}

// RMAT generates an R-MAT graph: each edge recursively descends the
// adjacency-matrix quadrants with the configured probabilities. The result
// has a heavily skewed (power-law-like) degree distribution; duplicate edges
// and self-loops are removed, matching the paper's input cleaning.
//
// Sample i draws exactly Scale values from one SplitMix64 stream, so its
// generator state is seed + i·Scale·γ (γ the SplitMix64 increment): chunks
// of samples jump ahead to their own state, run on the workers, and write
// their edges into their own stretch of one list; graph.FromEdgeChunks
// reads the stretches in chunk order where they lie. The edge sequence is
// the one a single stream draws, at any worker count.
func RMAT(cfg RMATConfig) *graph.Graph {
	n := 1 << cfg.Scale
	m := cfg.EdgeFactor * n
	lv := newRMATLevels(cfg.A, cfg.B, cfg.C)
	var sc scrambler
	if cfg.Scramble {
		sc = newScrambler(uint64(n), cfg.Seed)
	}
	edges := make([]graph.Edge, m)
	parts := inOrder(m, func(_, lo, hi int) []graph.Edge {
		rng := SplitMix64{state: cfg.Seed + uint64(lo)*uint64(cfg.Scale)*splitMixGamma}
		w := lo
		for i := lo; i < hi; i++ {
			u, v := lv.sample(&rng, cfg.Scale)
			if u == v {
				continue
			}
			if cfg.Scramble {
				u, v = sc.apply(u), sc.apply(v)
			}
			edges[w] = graph.Edge{U: u, V: v}
			w++
		}
		return edges[lo:w]
	})
	return graph.FromEdgeChunks(n, parts)
}

// rmatLevels holds the quadrant thresholds of one R-MAT level as integers:
// a draw's top 53 bits k pick quadrant A below tA, B below tAB, C below tABC
// and D from there on. For a threshold t = ⌈p·2⁵³⌉ (clamped to [0, 2⁵³]),
// k < t exactly when float64(k)/2⁵³ < p, so this is the comparison of
// Float64() against A, A+B and A+B+C, without the float.
type rmatLevels struct {
	tA, tAB, tABC uint64
	ordered       bool // tA ≤ tAB ≤ tABC: the branch-free rule applies
}

func newRMATLevels(a, b, c float64) rmatLevels {
	l := rmatLevels{tA: threshold53(a), tAB: threshold53(a + b), tABC: threshold53(a + b + c)}
	l.ordered = l.tA <= l.tAB && l.tAB <= l.tABC
	return l
}

// threshold53 returns ⌈p·2⁵³⌉ clamped to [0, 2⁵³]; a NaN gives 0, as no
// draw is below it.
func threshold53(p float64) uint64 {
	switch {
	case !(p > 0):
		return 0
	case p >= 1:
		return 1 << 53
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

// sample descends scale levels, one draw each, and returns the edge's
// endpoints. With ordered thresholds the u bit is [k ≥ tAB] and the v bit
// is [k ≥ tA] ⊕ [k ≥ tAB] ⊕ [k ≥ tABC], which is what the switch's first
// match gives; the switch serves thresholds out of order (a negative B or
// C), where only the first match is the rule.
func (l *rmatLevels) sample(rng *SplitMix64, scale int) (u, v uint64) {
	for bit := scale - 1; bit >= 0; bit-- {
		k := rng.Next() >> 11
		if l.ordered {
			// k, t ≤ 2⁵³, so bit 63 of k−t is [k < t].
			ltAB := (k - l.tAB) >> 63
			u |= (1 ^ ltAB) << uint(bit)
			v |= (1 ^ (k-l.tA)>>63 ^ ltAB ^ (k-l.tABC)>>63) << uint(bit)
			continue
		}
		switch {
		case k < l.tA:
			// upper-left: no bits set
		case k < l.tAB:
			v |= 1 << uint(bit)
		case k < l.tABC:
			u |= 1 << uint(bit)
		default:
			u |= 1 << uint(bit)
			v |= 1 << uint(bit)
		}
	}
	return u, v
}

// scrambler is a seeded pseudorandom permutation of [0,n) for n a power of
// two. Each of its three rounds composes an affine map (bijective mod 2^k
// for odd multipliers) with an xorshift (bijective on k-bit words), so the
// whole map is a permutation. The rounds' constants depend on the seed and
// n only, and are derived once.
type scrambler struct {
	a, b [3]uint64
	mask uint64
}

func newScrambler(n, seed uint64) scrambler {
	s := scrambler{mask: n - 1}
	for round := uint64(0); round < 3; round++ {
		s.a[round] = Hash64(seed, 2*round)%n | 1
		s.b[round] = Hash64(seed, 2*round+1) & s.mask
	}
	return s
}

func (s *scrambler) apply(x uint64) uint64 {
	for round := range s.a {
		x = (s.a[round]*x + s.b[round]) & s.mask
		x ^= x >> 3
	}
	return x & s.mask
}
