package gen

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/leakcheck"
)

// fingerprint is FNV-64a over each vertex's [degree, neighbours…] as
// little-endian uint64s: equal fingerprints mean equal CSRs.
func fingerprint(g *graph.Graph) uint64 {
	h := fnv.New64a()
	var b [8]byte
	word := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	for v := 0; v < g.NumVertices(); v++ {
		nb := g.Neighbors(uint64(v))
		word(uint64(len(nb)))
		for _, x := range nb {
			word(x)
		}
	}
	return h.Sum64()
}

// TestGraphFingerprints pins every seeded family's CSR, not just its
// triangle count, at 2^13 vertices and two seeds, and at 1, 2, 3 and 8
// workers: the parallel generators, graph.FromEdges' row sorts and
// graph.FromRuns must give the graph the sequential generators gave, bit
// for bit. The values were recorded from the sequential generators.
func TestGraphFingerprints(t *testing.T) {
	leakcheck.Check(t)
	build := map[string]func(seed uint64) *graph.Graph{
		"web": func(seed uint64) *graph.Graph {
			return WebGraph(WebConfig{N: 1 << 13, HostSize: 32, IntraP: 0.4, LongFactor: 3, Seed: seed})
		},
		"road": func(seed uint64) *graph.Graph { return RoadNetwork(64, 128, 0.3, seed) },
	}
	for _, fam := range Families() {
		fam := fam
		build[fam] = func(seed uint64) *graph.Graph {
			g, err := ByFamily(fam, 1<<13, 16, seed)
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
	}
	want := []struct {
		family string
		seed   uint64
		fp     uint64
	}{
		{"gnm", 1, 0xbe2e6ec2fc621dcb},
		{"rmat", 1, 0x68fb8039259814b6},
		{"rgg2d", 1, 0xd91106312aac5e13},
		{"rhg", 1, 0xe63c59d941e8acee},
		{"web", 1, 0xd1332b4f79878816},
		{"road", 1, 0x7e64474d0a4aa755},
		{"gnm", 42, 0x0d46f40a75820246},
		{"rmat", 42, 0x5e1eb92d68de199e},
		{"rgg2d", 42, 0x74f716f301439ac2},
		{"rhg", 42, 0x011a11cac2a7ddf5},
		{"web", 42, 0x02097c1757f9db34},
		{"road", 42, 0x26f2d976335e5de7},
	}
	defer func(saved int) { threads = saved }(threads)
	for _, w := range []int{1, 2, 3, 8} {
		threads = w
		for _, c := range want {
			t.Run(fmt.Sprintf("%s/seed=%d/workers=%d", c.family, c.seed, w), func(t *testing.T) {
				if got := fingerprint(build[c.family](c.seed)); got != c.fp {
					t.Errorf("fingerprint %016x, want %016x", got, c.fp)
				}
			})
		}
	}
}

// TestRMATLevelsMatchFloats holds the integer-threshold sampler against
// R-MAT's float rule (Float64() against A, A+B, A+B+C, first match wins)
// draw for draw, for the Graph 500 probabilities and for configs whose
// thresholds fall out of order, clamp or are NaN.
func TestRMATLevelsMatchFloats(t *testing.T) {
	const scale = 12
	floats := func(rng *SplitMix64, a, b, c float64) (u, v uint64) {
		ab, abc := a+b, a+b+c
		for bit := scale - 1; bit >= 0; bit-- {
			r := rng.Float64()
			switch {
			case r < a:
			case r < ab:
				v |= 1 << uint(bit)
			case r < abc:
				u |= 1 << uint(bit)
			default:
				u |= 1 << uint(bit)
				v |= 1 << uint(bit)
			}
		}
		return u, v
	}
	for _, p := range [][3]float64{
		{RMATDefaultA, RMATDefaultB, RMATDefaultC},
		{0.25, 0.25, 0.25},
		{0.5, -0.2, 0.5}, // A+B < A
		{0.3, 0.4, -0.5}, // A+B+C < A+B
		{-0.1, 0.6, 0.3}, // A < 0
		{1.5, 0.1, 0.1},  // A > 1
		{0, 0, 0},        // every level in D
		{math.NaN(), 0.5, 0.2},
		{0.1, math.Inf(1), 0},
		{1.0 / 3, 1.0 / 3, 1.0 / 3},
	} {
		lv := newRMATLevels(p[0], p[1], p[2])
		want, got := NewRNG(9), NewRNG(9)
		for i := 0; i < 4096; i++ {
			wu, wv := floats(want, p[0], p[1], p[2])
			gu, gv := lv.sample(got, scale)
			if gu != wu || gv != wv {
				t.Fatalf("A,B,C = %v, sample %d: (%d,%d), want (%d,%d)", p, i, gu, gv, wu, wv)
			}
		}
	}
}
