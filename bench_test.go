package tricount

// Kernel benchmarks of the counting core: the set-intersection kernels and
// the sequential baseline. The paper's exact communication quantities are
// asserted by internal/core's TestPaperClaims; wall-time measurement of the
// distributed runs belongs to cmd/bench, the repository's benchmark harness.
//
// Run: go test -bench=. -benchmem

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// BenchmarkIntersect: every set-intersection kernel (plain merge, branchless
// merge, galloping, hub bitmap, and the adaptive dispatcher) across operand
// skew ratios from 1:1 to 1:1024 — the innermost loop of every algorithm.
// Run with -benchmem: all kernels are allocation-free.
func BenchmarkIntersect(b *testing.B) {
	mk := func(n int, stride uint64) []graph.Vertex {
		out := make([]graph.Vertex, n)
		for i := range out {
			out[i] = uint64(i) * stride
		}
		return out
	}
	const large = 4096
	big := mk(large, 3)
	// The bitmap kernel tests list membership against a prebuilt bitset of
	// the large side, as the hub index does for heavy A-lists.
	bits := make(graph.Bitset, graph.BitsetWords(large*3+1))
	graph.SetList(bits, big)
	kernels := []struct {
		name string
		run  func(small []graph.Vertex) uint64
	}{
		{"merge", func(s []graph.Vertex) uint64 { return graph.CountMerge(s, big) }},
		{"gallop", func(s []graph.Vertex) uint64 { return graph.CountGallop(s, big) }},
		{"bitmap", func(s []graph.Vertex) uint64 { return graph.CountList(bits, s) }},
		{"adaptive", func(s []graph.Vertex) uint64 { return graph.CountIntersect(s, big) }},
	}
	for _, skew := range []int{1, 4, 16, 64, 256, 1024} {
		// The small side subsamples the large side's domain so every kernel
		// (including the bitmap, whose domain is the large side's range)
		// probes in-range values.
		small := mk(large/skew, 3*uint64(skew))
		for _, k := range kernels {
			b.Run(fmt.Sprintf("%s/skew=1:%d", k.name, skew), func(b *testing.B) {
				b.ReportAllocs()
				var sink uint64
				for i := 0; i < b.N; i++ {
					sink += k.run(small)
				}
				benchSink = sink
			})
		}
	}
}

// benchSink defeats dead-code elimination of pure kernel calls.
var benchSink uint64

// BenchmarkSequential: the single-core EDGE ITERATOR baseline.
func BenchmarkSequential(b *testing.B) {
	for _, scale := range []int{10, 12} {
		g := gen.RMAT(gen.DefaultRMAT(scale, 3))
		b.Run(fmt.Sprintf("rmat-2^%d", scale), func(b *testing.B) {
			var c uint64
			for i := 0; i < b.N; i++ {
				c = core.SeqCount(g)
			}
			b.ReportMetric(float64(c), "triangles")
		})
	}
}
