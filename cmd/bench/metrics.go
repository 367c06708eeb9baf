package main

import (
	"strings"

	"repro/internal/core"
)

// metricDef names one number the benchmark prints. BENCHMARK.json lists the
// same names, units and directions; bench_test.go fails when the two drift.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// End-to-end bounds. Ten runs of one workload on other seeds spread (Q3-Q1
// over the median) by up to 0.08 on the 2-core host, most of it the host
// itself drifting over minutes, so a tighter bound would reject the
// benchmark's own parent. -check compares two sets of the same code against
// the same bounds.
const (
	countWallBound = 0.25
	setupBound     = 0.25
)

var endToEnd = []metricDef{
	{"count_wall_s", "s", "lower", countWallBound},
	{"setup_s", "s", "lower", setupBound},
}

// phaseKeys are the Result.Phases entries reported as core.phase_s.<key>,
// with "/" spelled "_" because metric names may not hold a slash.
var phaseKeys = []string{
	core.PhasePreprocess, core.PhaseScatter, core.PhaseBuild, core.PhaseDegrees, core.PhaseOrient,
	core.PhaseLocal, core.PhaseContraction, core.PhaseGlobal, core.PhaseGlobalExchange,
	core.PhaseOverlapIdle, core.PhaseStreamStage, core.PhaseStreamDelta, core.PhaseStreamCommit,
}

func phaseMetric(key string) string {
	return "core.phase_s." + strings.ReplaceAll(key, "/", "_")
}

// traceLayers are the span-name prefixes whose self time is reported as
// trace.self_s.<layer>; "bench" is the harness itself (GC, network build).
var traceLayers = []string{"bench", "core", "graph", "comm", "transport", "dist"}

var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	for _, k := range phaseKeys {
		defs = append(defs, metricDef{Name: phaseMetric(k), Unit: "s", Better: "lower"})
	}
	defs = append(defs,
		metricDef{Name: "core.recv_work_words_max", Unit: "words", Better: "lower"},
		metricDef{Name: "core.type23_share", Unit: "ratio", Better: "lower"},
		metricDef{Name: "graph.scatter_ns_per_edge", Unit: "ns/edge", Better: "lower"},
		metricDef{Name: "graph.build_ns_per_edge", Unit: "ns/edge", Better: "lower"},
		metricDef{Name: "graph.orient_ns_per_edge", Unit: "ns/edge", Better: "lower"},
		metricDef{Name: "graph.contract_ns_per_edge", Unit: "ns/edge", Better: "lower"},
		metricDef{Name: "graph.block_build_ns_per_edge", Unit: "ns/edge", Better: "lower"},
		metricDef{Name: "graph.stream_insert_ns_per_edge", Unit: "ns/edge", Better: "lower"},
		metricDef{Name: "graph.intersect_ns_per_word", Unit: "ns/word", Better: "lower"},
		metricDef{Name: "graph.intersect_words", Unit: "words", Better: "lower"},
		metricDef{Name: "graph.intersect_hits_per_word", Unit: "ratio", Better: "higher"},
		metricDef{Name: "comm.max_sent_frames", Unit: "count", Better: "lower"},
		metricDef{Name: "comm.max_payload_words", Unit: "words", Better: "lower"},
		metricDef{Name: "comm.total_encoded_bytes", Unit: "bytes", Better: "lower"},
		metricDef{Name: "comm.compression_ratio", Unit: "ratio", Better: "higher"},
		metricDef{Name: "comm.max_peak_buffered_words", Unit: "words", Better: "lower"},
		metricDef{Name: "comm.control_frames", Unit: "count", Better: "lower"},
		metricDef{Name: "comm.idle_s_max", Unit: "s", Better: "lower"},
		metricDef{Name: "comm.queue_ns_per_word", Unit: "ns/word", Better: "lower"},
		metricDef{Name: "comm.queue_mb_per_s", Unit: "MB/s", Better: "higher"},
		metricDef{Name: "comm.bcast_ns", Unit: "ns", Better: "lower"},
		metricDef{Name: "comm.allreduce_ns", Unit: "ns", Better: "lower"},
		metricDef{Name: "transport.chan_rtt_ns", Unit: "ns", Better: "lower"},
		metricDef{Name: "transport.tcp_rtt_us", Unit: "us", Better: "lower"},
		metricDef{Name: "transport.tcp_mb_per_s", Unit: "MB/s", Better: "higher"},
		metricDef{Name: "transport.tcp_faults", Unit: "count", Better: "lower"},
		metricDef{Name: "dist.spawn_join_us", Unit: "us", Better: "lower"},
		metricDef{Name: "runtime.peak_sys_mb", Unit: "MB", Better: "lower"},
	)
	for _, l := range traceLayers {
		defs = append(defs, metricDef{Name: "trace.self_s." + l, Unit: "s", Better: "lower"})
	}
	return append(defs, metricDef{Name: "trace_overhead_ratio", Unit: "ratio", Better: "lower"})
}
