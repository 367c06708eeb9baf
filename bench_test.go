package tricount

// One benchmark per table and figure of the paper (plus ablation benches for
// the engineering choices of its §IV). These are quick spot-checks of
// the same drivers cmd/experiments runs at full size; custom metrics expose
// the paper's reported quantities: max messages over PEs ("msgs") and
// bottleneck communication volume in machine words ("words").
//
// Run: go test -bench=. -benchmem

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/gen"
	"repro/internal/graph"
)

func reportComm(b *testing.B, res *core.Result) {
	b.ReportMetric(float64(res.Agg.MaxSentFrames), "msgs")
	b.ReportMetric(float64(res.Agg.MaxPayloadWords), "words")
}

func mustRun(b *testing.B, algo core.Algorithm, g *graph.Graph, cfg core.Config) *core.Result {
	b.Helper()
	res, err := core.Run(algo, g, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func mustRunVariant(b *testing.B, v exp.Variant, g *graph.Graph, cfg core.Config) *core.Result {
	b.Helper()
	res, err := v.Run(g, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkTable1Stats regenerates the Table I statistics (wedges and
// triangle counts) of the real-world stand-ins.
func BenchmarkTable1Stats(b *testing.B) {
	for _, name := range gen.InstanceNames() {
		b.Run(name, func(b *testing.B) {
			g, err := gen.ByInstance(name, -3, 42)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var tri uint64
			for i := 0; i < b.N; i++ {
				stats := graph.ComputeStats(g)
				tri = core.SeqCount(g)
				_ = stats
			}
			b.ReportMetric(float64(tri), "triangles")
		})
	}
}

// BenchmarkFig2Aggregation: the basic distributed algorithm with and without
// message aggregation on the friendster stand-in (Fig. 2).
func BenchmarkFig2Aggregation(b *testing.B) {
	g, err := gen.ByInstance("friendster", -3, 42)
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range []struct {
		name      string
		threshold int // 1: DITRIC without aggregation
	}{{"buffering", 0}, {"no-buffering", 1}} {
		b.Run(v.name, func(b *testing.B) {
			var res *core.Result
			for i := 0; i < b.N; i++ {
				res = mustRun(b, core.AlgoDiTric, g, core.Config{P: 8, Threshold: v.threshold})
			}
			reportComm(b, res)
		})
	}
}

// BenchmarkFig5WeakScaling: weak scaling over the four synthetic families
// for all six algorithms (Fig. 5).
func BenchmarkFig5WeakScaling(b *testing.B) {
	perPE := map[string]int{"rgg2d": 1 << 10, "rhg": 1 << 10, "gnm": 1 << 8, "rmat": 1 << 8}
	for _, family := range gen.Families() {
		for _, p := range []int{1, 4, 16} {
			n := perPE[family] * p
			g, err := gen.ByFamily(family, n, 16, 42+uint64(p))
			if err != nil {
				b.Fatal(err)
			}
			for _, v := range exp.PaperSeries {
				b.Run(fmt.Sprintf("%s/p=%d/%s", family, p, v.Name), func(b *testing.B) {
					var res *core.Result
					for i := 0; i < b.N; i++ {
						res = mustRunVariant(b, v, g, core.Config{P: p})
					}
					reportComm(b, res)
				})
			}
		}
	}
}

// BenchmarkFig6StrongScaling: strong scaling on the real-world stand-ins
// (Fig. 6), lighter sweep to keep the suite fast.
func BenchmarkFig6StrongScaling(b *testing.B) {
	for _, name := range gen.InstanceNames() {
		g, err := gen.ByInstance(name, -3, 42)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range []int{4, 16} {
			for _, v := range exp.Variants("ditric", "ditric2", "cetric", "cetric2") {
				b.Run(fmt.Sprintf("%s/p=%d/%s", name, p, v.Name), func(b *testing.B) {
					var res *core.Result
					for i := 0; i < b.N; i++ {
						res = mustRunVariant(b, v, g, core.Config{P: p})
					}
					reportComm(b, res)
				})
			}
		}
	}
}

// BenchmarkFig7Phases: the phase breakdown instances (Fig. 7); per-phase
// times are exposed as metrics (µs).
func BenchmarkFig7Phases(b *testing.B) {
	for _, name := range []string{"friendster", "webbase-2001", "live-journal"} {
		g, err := gen.ByInstance(name, -3, 42)
		if err != nil {
			b.Fatal(err)
		}
		for _, algo := range []core.Algorithm{core.AlgoDiTric, core.AlgoCetric} {
			b.Run(fmt.Sprintf("%s/%s", name, algo), func(b *testing.B) {
				var res *core.Result
				for i := 0; i < b.N; i++ {
					res = mustRun(b, algo, g, core.Config{P: 8})
				}
				for _, ph := range []string{core.PhasePreprocess, core.PhaseLocal, core.PhaseContraction, core.PhaseGlobal} {
					b.ReportMetric(float64(res.Phases[ph].Microseconds()), ph+"-µs")
				}
				reportComm(b, res)
			})
		}
	}
}

// BenchmarkFig8Hybrid: the hybrid threads-per-rank trade-off on the orkut
// stand-in with cores = ranks × threads fixed (appendix Fig. 8).
func BenchmarkFig8Hybrid(b *testing.B) {
	g, err := gen.ByInstance("orkut", -2, 42)
	if err != nil {
		b.Fatal(err)
	}
	const cores = 8
	for threads := 1; threads <= cores; threads *= 2 {
		ranks := cores / threads
		b.Run(fmt.Sprintf("threads=%d/ranks=%d", threads, ranks), func(b *testing.B) {
			var res *core.Result
			for i := 0; i < b.N; i++ {
				res = mustRun(b, core.AlgoDiTric, g, core.Config{P: ranks, Threads: threads, Indirect: true})
			}
			b.ReportMetric(float64(res.Phases[core.PhaseLocal].Microseconds()), "local-µs")
			b.ReportMetric(float64(res.Agg.TotalPayload), "total-words")
		})
	}
}

// BenchmarkApproxAMQ: the §IV-E AMQ extension — volume/accuracy trade-off
// versus the Bloom filter budget.
func BenchmarkApproxAMQ(b *testing.B) {
	g := gen.GNM(1<<12, 16<<12, 21)
	for _, bits := range []float64{4, 8, 16} {
		b.Run(fmt.Sprintf("bits=%v", bits), func(b *testing.B) {
			var est float64
			var words float64
			for i := 0; i < b.N; i++ {
				res, err := core.RunApproxCetric(g, core.Config{P: 8},
					core.AMQConfig{BitsPerKey: bits, Truthful: true})
				if err != nil {
					b.Fatal(err)
				}
				est = res.Estimate
				words = float64(res.Agg.MaxPayloadWords)
			}
			b.ReportMetric(est, "estimate")
			b.ReportMetric(words, "words")
		})
	}
}

// BenchmarkAblationThreshold: the aggregation threshold δ sweep.
func BenchmarkAblationThreshold(b *testing.B) {
	g := gen.RMAT(gen.DefaultRMAT(11, 7))
	for _, delta := range []int{64, 4096, 1 << 18} {
		b.Run(fmt.Sprintf("delta=%d", delta), func(b *testing.B) {
			var res *core.Result
			for i := 0; i < b.N; i++ {
				res = mustRun(b, core.AlgoDiTric, g, core.Config{P: 8, Threshold: delta})
			}
			b.ReportMetric(float64(res.Agg.TotalFrames), "frames")
			b.ReportMetric(float64(res.Agg.MaxPeakBuffered), "peak-words")
		})
	}
}

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
	bits := graph.NewBitset(large*3 + 1)
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

// BenchmarkAblationSurrogate: Arifuzzaman's surrogate dedup vs per-edge
// shipments.
func BenchmarkAblationSurrogate(b *testing.B) {
	g := gen.RMAT(gen.DefaultRMAT(11, 13))
	for _, noSurrogate := range []bool{false, true} {
		name := "dedup"
		if noSurrogate {
			name = "per-edge"
		}
		b.Run(name, func(b *testing.B) {
			var res *core.Result
			for i := 0; i < b.N; i++ {
				res = mustRun(b, core.AlgoDiTric, g, core.Config{P: 8, NoSurrogate: noSurrogate})
			}
			b.ReportMetric(float64(res.Agg.TotalPayload), "payload-words")
		})
	}
}
