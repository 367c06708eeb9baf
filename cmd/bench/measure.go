package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
)

// Run shape. setups full set-ups per run give setup_s a median of its own;
// minReps keeps a rep count worth a median on a host too slow to fit more
// into -seconds; -quick runs one of each.
const (
	setups  = 5
	minReps = 5
)

// timing summarizes timing samples: median, quartiles (the exclusive method
// Python's statistics.quantiles(n=4) uses), extremes and the sample count.
// Tail is the highest percentile with at least ten samples beyond it; below
// twenty samples there is none and TailP stays 0.
type timing struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
	TailP  float64 `json:"tail_percentile,omitempty"`
	Tail   float64 `json:"tail,omitempty"`
}

func summarize(samples []float64) timing {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	d := timing{N: n, Min: s[0], Max: s[n-1]}
	quart := func(i int) float64 {
		if n == 1 {
			return s[0]
		}
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - 4*j
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	d.Q1, d.Median, d.Q3 = quart(1), quart(2), quart(3)
	if n >= 20 {
		d.TailP = 100 * float64(n-10) / float64(n)
		d.Tail = s[n-11]
	}
	return d
}

func median(samples []float64) float64 { return summarize(samples).Median }

// exactCounts are the numbers of one rep that depend only on input and
// configuration, never on timing, when the schedule is barriered.
type exactCounts struct {
	Count           uint64 `json:"count"`
	MaxSentFrames   int64  `json:"max_sent_frames"`
	MaxPayloadWords int64  `json:"max_payload_words"`
	TotalEncoded    int64  `json:"total_encoded_bytes"`
	TotalRaw        int64  `json:"total_raw_bytes"`
	MaxPeakBuffered int64  `json:"max_peak_buffered_words"`
	MaxRecvWork     int64  `json:"recv_work_words_max"`
}

func exactOf(res *core.Result) exactCounts {
	a := res.Agg
	return exactCounts{
		Count: res.Count, MaxSentFrames: a.MaxSentFrames, MaxPayloadWords: a.MaxPayloadWords,
		TotalEncoded: a.TotalEncodedBytes, TotalRaw: a.TotalRawBytes,
		MaxPeakBuffered: a.MaxPeakBuffered, MaxRecvWork: a.MaxRecvWork,
	}
}

// pass is a closed loop of reps, one count at a time.
type pass struct {
	walls     []float64 // seconds, successful reps only
	results   []*core.Result
	faults    int64
	attempted int
	failed    int
}

// runPass repeats the workload's count until secs have gone by (and at
// least reps times). A rep fails if it errors, miscounts or, on an exact
// workload, reports comm counts other than ref, the warm-up rep's.
func runPass(w *workload, in *input, secs float64, reps int, tr *tracer, ref exactCounts, log io.Writer) pass {
	var p pass
	start := time.Now()
	for p.attempted < reps || time.Since(start).Seconds() < secs {
		p.attempted++
		r, err := w.rep(in, tr)
		switch {
		case err != nil:
			fmt.Fprintf(log, "%s: rep %d: %v\n", w.name, p.attempted, err)
			p.failed++
			continue
		case r.res.Count != in.want:
			fmt.Fprintf(log, "%s: rep %d counted %d, SeqCount says %d\n", w.name, p.attempted, r.res.Count, in.want)
			p.failed++
			continue
		}
		if got := exactOf(r.res); w.exact && got != ref {
			fmt.Fprintf(log, "%s: rep %d comm counts %+v differ from %+v\n", w.name, p.attempted, got, ref)
			p.failed++
			continue
		}
		p.walls = append(p.walls, r.wall.Seconds())
		p.results = append(p.results, r.res)
		p.faults += r.faults
	}
	return p
}

// result is everything one workload run produced.
type result struct {
	Name       string             `json:"name"`
	N          int                `json:"n"`
	M          int                `json:"m"`
	Triangles  uint64             `json:"triangles"`
	MaxDegree  int                `json:"max_degree"`
	Attempted  int                `json:"ops"`
	Failed     int                `json:"failed"`
	CountWall  timing             `json:"count_wall_s"`
	Setup      timing             `json:"setup_s"`
	MedgesPerS float64            `json:"medges_per_s"`
	Exact      bool               `json:"exact"`
	Counts     exactCounts        `json:"counts"`
	Layers     map[string]float64 `json:"per_layer,omitempty"`

	tracer *tracer
}

type options struct {
	seed    uint64
	seconds float64
	quick   bool
	traced  bool // run the traced pass and the layer probes after the timed pass
}

// runWorkload sets the workload up, runs the untraced timed pass and, if
// asked, the separate traced pass with the layer probes.
func runWorkload(w *workload, opt options, log io.Writer) result {
	nSetups, reps, secs, shift := setups, minReps, opt.seconds, uint(0)
	if opt.quick {
		nSetups, reps, secs, shift = 1, 1, 0, quickShift
	}
	res := result{Name: w.name, Exact: w.exact}

	// Set-up is everything paid before the first timed rep: generation,
	// edge list, sequential reference, first network, warm-up rep. Each
	// round regenerates from the seed; the last round's input is kept.
	var in *input
	var setupS []float64
	for i := 0; i < nSetups; i++ {
		in = nil
		runtime.GC()
		t0 := time.Now()
		in = w.generate(shift, opt.seed)
		warm, err := w.rep(in, nil)
		setupS = append(setupS, time.Since(t0).Seconds())
		if err != nil || warm.res.Count != in.want {
			fmt.Fprintf(log, "%s: warm-up rep failed (err=%v)\n", w.name, err)
			res.Attempted++
			res.Failed++
			continue
		}
		res.Counts = exactOf(warm.res)
	}
	res.Setup = summarize(setupS)
	res.N, res.M = in.g.NumVertices(), in.g.NumEdges()
	res.Triangles, res.MaxDegree = in.want, in.g.MaxDegree()

	timed := runPass(w, in, secs, reps, nil, res.Counts, log)
	res.Attempted += timed.attempted
	res.Failed += timed.failed
	if len(timed.walls) == 0 {
		return res
	}
	res.CountWall = summarize(timed.walls)
	res.MedgesPerS = float64(res.M) / res.CountWall.Median / 1e6
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	if !opt.traced {
		return res
	}
	tr := newTracer(w.name)
	root := tr.begin("bench.workload")
	traced := runPass(w, in, secs/2, reps, tr, res.Counts, log)
	res.Attempted += traced.attempted
	res.Failed += traced.failed
	if len(traced.walls) == 0 {
		tr.end(root)
		return res
	}
	res.Layers = layerMetrics(traced)
	res.Layers["runtime.peak_sys_mb"] = float64(ms.Sys) / (1 << 20)
	res.Layers["trace_overhead_ratio"] = median(traced.walls) / res.CountWall.Median
	rounds := 3
	if opt.quick {
		rounds = 1
	}
	last := traced.results[len(traced.results)-1]
	if err := runProbes(w, in, last.Agg, rounds, tr, res.Layers); err != nil {
		fmt.Fprintf(log, "%s: layer probes: %v\n", w.name, err)
		res.Attempted++
		res.Failed++
	}
	res.Layers["transport.tcp_faults"] += float64(timed.faults + traced.faults)
	tr.end(root)
	self := tr.selfSeconds()
	for _, l := range traceLayers {
		res.Layers["trace.self_s."+l] = self[l]
	}
	res.tracer = tr
	return res
}

// layerMetrics reads the per-layer numbers a pass's public Results carry:
// phase walls (median over reps of the max over PEs) and the comm counts of
// the last rep (identical in every rep where the workload is exact).
func layerMetrics(p pass) map[string]float64 {
	m := make(map[string]float64)
	for _, key := range phaseKeys {
		samples := make([]float64, len(p.results))
		for i, r := range p.results {
			samples[i] = r.Phases[key].Seconds()
		}
		m[phaseMetric(key)] = median(samples)
	}
	idle := make([]float64, len(p.results))
	for i, r := range p.results {
		idle[i] = float64(r.Agg.MaxIdleNs) / 1e9
	}
	m["comm.idle_s_max"] = median(idle)

	last := p.results[len(p.results)-1]
	a := last.Agg
	m["core.recv_work_words_max"] = float64(a.MaxRecvWork)
	if t := last.TypeCounts; t[0]+t[1]+t[2] > 0 {
		m["core.type23_share"] = float64(t[1]+t[2]) / float64(t[0]+t[1]+t[2])
	} else {
		m["core.type23_share"] = 0 // DITRIC and TK2D do not classify triangles
	}
	m["comm.max_sent_frames"] = float64(a.MaxSentFrames)
	m["comm.max_payload_words"] = float64(a.MaxPayloadWords)
	m["comm.total_encoded_bytes"] = float64(a.TotalEncodedBytes)
	m["comm.compression_ratio"] = a.CompressionRatio()
	m["comm.max_peak_buffered_words"] = float64(a.MaxPeakBuffered)
	m["comm.control_frames"] = float64(a.ControlSent)
	return m
}
