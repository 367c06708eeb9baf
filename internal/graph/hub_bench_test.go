package graph_test

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/part"
)

// Hub-row benchmarks on the RHG/RGG stand-ins: intersections against the
// heaviest real rows, the hub-bitmap pair kernel (LocalOriented.CountRowPair
// with TriC's hub index built) vs the plain merge oracle, on the degree
// orientation of a one-PE view — the everything-small case the dispatcher
// must not regress.
func hubBenchGraphs() []struct {
	name string
	g    *graph.Graph
} {
	return []struct {
		name string
		g    *graph.Graph
	}{
		{"rhg-2^12", gen.RHG(gen.RHGConfig{N: 1 << 12, AvgDegree: 16, Gamma: 2.8, Seed: 42})},
		{"rgg2d-2^12", gen.RGG2D(1<<12, 16, 42)},
	}
}

var hubSink uint64

// onePEOriented is the degree orientation of g's one-PE view: every vertex
// is a local row and row r is vertex r.
func onePEOriented(g *graph.Graph) *graph.LocalOriented {
	_, lg := buildLocalForBench(g, 1, 0)
	return graph.OrientLocalPar(lg, 1)
}

// BenchmarkHubRows measures Σ_u |A(hub) ∩ A(u)| over every in-pair of the
// heaviest degree-oriented row — exactly the work a hub row generates, once
// per in-edge.
func BenchmarkHubRows(b *testing.B) {
	for _, spec := range hubBenchGraphs() {
		ori := onePEOriented(spec.g)
		hub := int32(0)
		for r := 0; r < ori.L.Rows(); r++ {
			if ori.OutDegree(int32(r)) > ori.OutDegree(hub) {
				hub = int32(r)
			}
		}
		probes := spec.g.Neighbors(graph.Vertex(hub))
		b.Run(spec.name+"/merge", func(b *testing.B) {
			b.ReportAllocs()
			var sink uint64
			for i := 0; i < b.N; i++ {
				for _, u := range probes {
					sink += graph.CountMerge(ori.OutRows(int32(u)), ori.OutRows(hub))
				}
			}
			hubSink = sink
		})
		b.Run(spec.name+"/adaptive", func(b *testing.B) {
			ori.BuildHubs(graph.DefaultHubMinDegree)
			b.ResetTimer()
			b.ReportAllocs()
			var sink uint64
			for i := 0; i < b.N; i++ {
				for _, u := range probes {
					sink += ori.CountRowPair(int32(u), hub)
				}
			}
			hubSink = sink
		})
	}
}

// BenchmarkAdaptiveIntersectSteadyState is the allocation-regression gate
// for the pair kernel: a full EDGE ITERATOR pass through CountRowPair (hub
// bitmaps, galloping, merge) over a one-PE degree orientation must report
// 0 allocs/op. The hub index is built before the timer starts; the counting
// loop itself owns no memory.
func BenchmarkAdaptiveIntersectSteadyState(b *testing.B) {
	for _, spec := range hubBenchGraphs() {
		ori := onePEOriented(spec.g)
		ori.BuildHubs(graph.DefaultHubMinDegree)
		rows := ori.L.Rows()
		b.Run(spec.name, func(b *testing.B) {
			b.ReportAllocs()
			var sink uint64
			for i := 0; i < b.N; i++ {
				for r := 0; r < rows; r++ {
					for _, ur := range ori.OutRows(int32(r)) {
						sink += ori.CountRowPair(int32(r), int32(ur))
					}
				}
			}
			hubSink = sink
		})
	}
}

// BenchmarkLocalOrientedCount times the row-space local phase (the stamped
// wedge kernel: each A(v) marked once, every A(u) probed against it) on one
// PE of a p=8 partition — the hot loop of CETRIC's local phase.
func BenchmarkLocalOrientedCount(b *testing.B) {
	for _, spec := range hubBenchGraphs() {
		_, lg := buildLocalForBench(spec.g, 8, 3)
		ori := graph.OrientLocalPar(lg, 1)
		rows := lg.Rows()
		b.Run(spec.name+"/row-space", func(b *testing.B) {
			ori.BuildHubs(graph.DefaultHubMinDegree)
			mark := ori.NewRowMark()
			b.ResetTimer()
			b.ReportAllocs()
			var sink uint64
			for i := 0; i < b.N; i++ {
				for r := 0; r < rows; r++ {
					av := ori.OutRows(int32(r))
					if len(av) < 2 {
						continue
					}
					mark.Stamp(av)
					for _, ur := range av {
						hub, probe := ori.Probe(mark, int32(ur))
						sink += probeCount(mark, hub, probe)
					}
					mark.Unstamp()
				}
			}
			hubSink = sink
		})
	}
}

// probeCount counts what LocalOriented.Probe returned: the probe list
// against the hub bitmap when there is one, against the stamped mark
// otherwise.
func probeCount(m *graph.Mark, hub graph.Bitset, probe []uint32) uint64 {
	if hub != nil {
		return graph.CountList(hub, probe)
	}
	return m.CountList(probe)
}

// buildLocalForBench builds one PE's local view of g under a uniform p-way
// partition, with ghost degrees filled from the global graph (standing in
// for the degree exchange).
func buildLocalForBench(g *graph.Graph, p, rank int) (*part.Partition, *graph.LocalGraph) {
	pt := part.Uniform(uint64(g.NumVertices()), p)
	per := graph.ScatterEdges(pt, g.Edges())
	lg := graph.BuildLocal(pt, rank, per[rank])
	for i, gid := range lg.Ghosts() {
		lg.SetGhostDegree(int32(lg.NLocal()+i), g.Degree(gid))
	}
	return pt, lg
}

// BenchmarkTranslateRowsSteadyState pins the receive-side translation: a
// ghost-heavy sorted list (every vertex ID of a no-locality graph, of which
// one PE of eight owns an eighth and sees most of the rest as ghosts)
// through a warmed RowTranslator, in both forms — TranslateRows (ascending
// rows, the per-edge records) and TranslateRowSet (list order, the stamped
// records) — must cost one ghost-index probe per entry and no allocation
// (CI allocation gate). The view's cut entries outnumber n, so its ghost
// index is the dense table.
func BenchmarkTranslateRowsSteadyState(b *testing.B) {
	g := gen.GNM(1<<14, 1<<17, 1)
	_, lg := buildLocalForBench(g, 8, 3)
	list := make([]graph.Vertex, g.NumVertices())
	for i := range list {
		list[i] = graph.Vertex(i)
	}
	var tr graph.RowTranslator
	rows, _ := lg.TranslateRows(&tr, list) // warm the scratch
	if len(rows) < lg.NLocal()+lg.NGhost() {
		b.Fatalf("translated %d of %d rows", len(rows), lg.NLocal()+lg.NGhost())
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		rows, nLoc := lg.TranslateRows(&tr, list)
		sink += uint64(len(rows) + nLoc + len(lg.TranslateRowSet(&tr, list)))
	}
	hubSink = sink
}
