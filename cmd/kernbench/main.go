// Command kernbench measures the adaptive intersection engine: kernel-by-
// kernel microbenchmarks across operand skews, hub-row cases on the RHG/RGG
// stand-ins, steady-state allocation counts for the queue flush/receive
// path, and end-to-end p=8 wall times for DITRIC/CETRIC/TriC. BENCH_pr3.json
// in the repo root is a recorded run:
//
//	go run ./cmd/kernbench > BENCH_pr3.json
package main

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/benchutil"
	"repro/internal/core"
	"repro/internal/graph"
)

type kernelRow struct {
	Kernel      string  `json:"kernel"`
	Skew        string  `json:"skew"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	SpeedupVsMg float64 `json:"speedup_vs_merge"`
}

type hubRow struct {
	Graph       string  `json:"graph"`
	HubOutDeg   int     `json:"hub_out_degree"`
	Probes      int     `json:"probes"`
	MergeNs     float64 `json:"merge_ns_per_op"`
	AdaptiveNs  float64 `json:"adaptive_ns_per_op"`
	Speedup     float64 `json:"speedup"`
	NumHubs     int     `json:"num_hubs"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

type e2eRow struct {
	Graph     string  `json:"graph"`
	Algo      string  `json:"algo"`
	LCC       bool    `json:"lcc,omitempty"`
	Triangles uint64  `json:"triangles"`
	BestWallS float64 `json:"best_wall_seconds"`
	Hubs      string  `json:"hub_bitmaps"`
}

type report struct {
	Note        string      `json:"note"`
	Go          string      `json:"go"`
	PEs         int         `json:"pes"`
	HubDefault  int         `json:"default_hub_min_degree"`
	Kernels     []kernelRow `json:"kernels"`
	HubRows     []hubRow    `json:"hub_rows"`
	QueueAllocs int64       `json:"queue_flush_recv_allocs_per_op"`
	EndToEnd    []e2eRow    `json:"end_to_end"`
}

func bench(f func(b *testing.B)) testing.BenchmarkResult { return testing.Benchmark(f) }

var sink uint64

func kernelMatrix() []kernelRow {
	mk := func(n int, stride uint64) []graph.Vertex {
		out := make([]graph.Vertex, n)
		for i := range out {
			out[i] = uint64(i) * stride
		}
		return out
	}
	const large = 4096
	big := mk(large, 3)
	bits := graph.NewBitset(large*3 + 1)
	graph.SetList(bits, big)
	kernels := []struct {
		name string
		run  func(s []graph.Vertex) uint64
	}{
		{"merge", func(s []graph.Vertex) uint64 { return graph.CountMerge(s, big) }},
		{"branchless", func(s []graph.Vertex) uint64 { return graph.CountMergeBranchless(s, big) }},
		{"gallop", func(s []graph.Vertex) uint64 { return graph.CountGallop(s, big) }},
		{"bitmap", func(s []graph.Vertex) uint64 { return graph.CountList(bits, s) }},
		{"adaptive", func(s []graph.Vertex) uint64 { return graph.CountIntersect(s, big) }},
	}
	var rows []kernelRow
	for _, skew := range []int{1, 4, 16, 64, 256, 1024} {
		small := mk(large/skew, 3*uint64(skew))
		var mergeNs float64
		for _, k := range kernels {
			res := bench(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sink += k.run(small)
				}
			})
			ns := float64(res.NsPerOp())
			if k.name == "merge" {
				mergeNs = ns
			}
			rows = append(rows, kernelRow{
				Kernel: k.name, Skew: fmt.Sprintf("1:%d", skew),
				NsPerOp: ns, AllocsPerOp: res.AllocsPerOp(),
				SpeedupVsMg: mergeNs / ns,
			})
		}
	}
	return rows
}

func hubRows() []hubRow {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"rhg-2^12", benchutil.ByName("rhg-2^12").Build()},
		{"rgg2d-2^12", benchutil.ByName("rgg2d-2^12").Build()},
	}
	var rows []hubRow
	for _, spec := range graphs {
		o := graph.OrientByID(spec.g)
		hub := graph.Vertex(0)
		for v := 0; v < spec.g.NumVertices(); v++ {
			if o.OutDegree(graph.Vertex(v)) > o.OutDegree(hub) {
				hub = graph.Vertex(v)
			}
		}
		probes := spec.g.Neighbors(hub)
		merge := bench(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, u := range probes {
					sink += graph.CountMerge(o.Out(u), o.Out(hub))
				}
			}
		})
		o.BuildHubs(graph.DefaultHubMinDegree)
		adaptive := bench(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, u := range probes {
					sink += o.CountPair(u, hub)
				}
			}
		})
		rows = append(rows, hubRow{
			Graph: spec.name, HubOutDeg: o.OutDegree(hub), Probes: len(probes),
			MergeNs: float64(merge.NsPerOp()), AdaptiveNs: float64(adaptive.NsPerOp()),
			Speedup: float64(merge.NsPerOp()) / float64(adaptive.NsPerOp()),
			NumHubs: o.NumHubs(), AllocsPerOp: adaptive.AllocsPerOp(),
		})
	}
	return rows
}

func endToEnd() []e2eRow {
	var graphs []struct {
		name string
		g    *graph.Graph
	}
	for _, s := range benchutil.Standins() {
		graphs = append(graphs, struct {
			name string
			g    *graph.Graph
		}{s.Name, s.Build()})
	}
	var rows []e2eRow
	for _, spec := range graphs {
		for _, run := range []struct {
			algo core.Algorithm
			lcc  bool
		}{
			{core.AlgoDiTric, false}, {core.AlgoCetric, false}, {core.AlgoTriC, false},
			{core.AlgoDiTric, true}, {core.AlgoCetric, true},
		} {
			best := time.Hour
			var tri uint64
			for i := 0; i < 7; i++ {
				res, err := core.Run(run.algo, spec.g, core.Config{P: 8, LCC: run.lcc})
				if err != nil {
					fmt.Fprintf(os.Stderr, "kernbench: %s/%s: %v\n", spec.name, run.algo, err)
					os.Exit(1)
				}
				if res.Wall < best {
					best = res.Wall
				}
				tri = res.Count
			}
			rows = append(rows, e2eRow{
				Graph: spec.name, Algo: string(run.algo), LCC: run.lcc,
				Triangles: tri, BestWallS: best.Seconds(), Hubs: "default",
			})
		}
	}
	return rows
}

func main() {
	rep := report{
		Note: "Adaptive intersection engine: kernel matrix (ns/op per |small∩big| with |big|=4096), " +
			"hub-row cases (heaviest by-ID-oriented row of the stand-ins, one intersection per in-edge), " +
			"steady-state queue flush+receive allocs/op (must be 0), and end-to-end p=8 best-of-7 wall " +
			"times. Wall times are machine-dependent; kernel ratios and alloc counts are the stable signal.",
		Go:         runtime.Version(),
		PEs:        8,
		HubDefault: graph.DefaultHubMinDegree,
		Kernels:    kernelMatrix(),
		HubRows:    hubRows(),
	}
	rep.QueueAllocs = benchutil.QueueSteadyStateAllocs()
	rep.EndToEnd = endToEnd()
	benchutil.WriteJSON("kernbench", rep)
}
