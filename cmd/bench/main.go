// Command bench is the repository's one benchmark: six fixed workloads,
// each timed end to end (count_wall_s, setup_s) with every count checked
// against core.SeqCount, and a separate traced pass that reads and probes
// every layer. BENCHMARK.json at the repository root declares the same
// workloads and metrics; README.md beside this file explains them.
//
// The last line of standard output is one JSON object per workload run:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// env records where and how the numbers were taken.
type env struct {
	Commit     string  `json:"commit"`
	Modified   bool    `json:"modified"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GOGC       string  `json:"gogc"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Setups     int     `json:"setups"`
	Quick      bool    `json:"quick"`
	// Unresolved: fewer than two cores, so PEs share one and the walls say
	// nothing about the two-core rows recorded elsewhere.
	Unresolved bool `json:"unresolved"`
}

func recordEnv(opt options) env {
	e := env{
		Commit: "unknown", GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GOGC: os.Getenv("GOGC"),
		Seed: opt.seed, Seconds: opt.seconds, Setups: setups, Quick: opt.quick,
		Unresolved: runtime.NumCPU() < 2,
	}
	if e.GOGC == "" {
		e.GOGC = "100"
	}
	if opt.quick {
		e.Setups = 1
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Commit = s.Value
			case "vcs.modified":
				e.Modified = s.Value == "true"
			}
		}
	}
	return e
}

// report is the fixed-schema JSON -out writes.
type report struct {
	Schema    string   `json:"schema"`
	Env       env      `json:"env"`
	Workloads []result `json:"workloads"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", 42, "seed every input is generated from")
	seconds := fs.Float64("seconds", 10, "how long the timed pass of one workload measures")
	trace := fs.String("trace", "both", "0: end-to-end metrics; 1: per-layer metrics from the traced pass; both")
	quick := fs.Bool("quick", false, "inputs shrunk 2^5 times, one set-up, one rep, probes on (schema smoke)")
	check := fs.Bool("check", false, "run every selected workload twice and fail if the two sets disagree beyond the bounds")
	outPath := fs.String("out", "", "write the full report (environment, distributions, counts) to this JSON file")
	spansPath := fs.String("spans", "", "write the traced pass's spans to this file as Chrome trace JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != "0" && *trace != "1" && *trace != "both") {
		fmt.Fprintln(stderr, "bench: -trace takes 0, 1 or both; no positional arguments")
		return 2
	}
	selected := workloads
	if *name != "all" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		selected = []workload{*w}
	}

	// PEs are goroutines: more runnable threads than cores only adds
	// scheduler noise, and every recorded row was taken at 2.
	runtime.GOMAXPROCS(2)
	opt := options{seed: *seed, seconds: *seconds, quick: *quick, traced: *trace != "0"}
	rep := report{Schema: "bench/v1", Env: recordEnv(opt)}
	e := rep.Env
	fmt.Fprintf(stdout, "# commit=%s modified=%v %s nproc=%d GOMAXPROCS=%d GOGC=%s seed=%d seconds=%g setups=%d quick=%v\n",
		e.Commit, e.Modified, e.GoVersion, e.NumCPU, e.GOMAXPROCS, e.GOGC, e.Seed, e.Seconds, e.Setups, e.Quick)
	if e.Unresolved {
		fmt.Fprintln(stdout, "# fewer than 2 cores: walls are printed but unresolved")
	}
	if *check {
		return runCheck(selected, opt, stdout, stderr)
	}

	failed := 0
	var tracers []*tracer
	for i := range selected {
		res := runWorkload(&selected[i], opt, stderr)
		rep.Workloads = append(rep.Workloads, res)
		failed += res.Failed
		if res.tracer != nil {
			tracers = append(tracers, res.tracer)
		}
		if !printResult(stdout, stderr, res, *trace) {
			failed++
		}
	}
	if *outPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*outPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: -out: %v\n", err)
			return 1
		}
	}
	if *spansPath != "" && len(tracers) > 0 {
		if err := writeChromeTrace(*spansPath, tracers); err != nil {
			fmt.Fprintf(stderr, "bench: -spans: %v\n", err)
			return 1
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult prints every metric of one workload by name with its unit,
// then the one-line JSON result. It reports false when a metric the catalog
// names is missing or not a finite number.
func printResult(stdout, stderr io.Writer, res result, trace string) bool {
	fmt.Fprintf(stdout, "## %s  n=%d m=%d triangles=%d max_degree=%d ops=%d failed=%d\n",
		res.Name, res.N, res.M, res.Triangles, res.MaxDegree, res.Attempted, res.Failed)
	metrics := make(map[string]metricValue)
	ok := true
	emit := func(d metricDef, v float64, have bool, note string) {
		if !have || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "bench: %s: metric %s missing\n", res.Name, d.Name)
			ok = false
			return
		}
		metrics[d.Name] = metricValue{v, d.Unit}
		fmt.Fprintf(stdout, "%-20s %-34s %16.9g %-8s %s\n", res.Name, d.Name, v, d.Unit, note)
	}
	if trace != "1" {
		for _, d := range endToEnd {
			ds := res.CountWall
			if d.Name == "setup_s" {
				ds = res.Setup
			}
			emit(d, ds.Median, ds.N > 0, describe(ds))
		}
		if res.CountWall.N > 0 {
			fmt.Fprintf(stdout, "%-20s %-34s %16.9g %-8s derived, not gated\n", res.Name, "medges_per_s", res.MedgesPerS, "Medges/s")
		}
	}
	if trace != "0" {
		for _, d := range perLayer {
			v, have := res.Layers[d.Name]
			emit(d, v, have, "")
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   ok && res.Failed == 0,
		"attempted": max(1, res.Attempted),
		"failed":    res.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return false
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return ok
}

// describe spells out a distribution next to its median.
func describe(d timing) string {
	s := fmt.Sprintf("q1=%.6g q3=%.6g min=%.6g max=%.6g n=%d", d.Q1, d.Q3, d.Min, d.Max, d.N)
	if d.TailP > 0 {
		return s + fmt.Sprintf(" p%.0f=%.6g", d.TailP, d.Tail)
	}
	return s + " (too few samples for a tail percentile)"
}

// runCheck runs every selected workload twice, back to back, each time in a
// fresh generation from the same seed, and fails if the two sets disagree:
// count_wall_s or setup_s medians apart by more than their bounds, any rep
// failed, or an exact count differs at all.
func runCheck(selected []workload, opt options, stdout, stderr io.Writer) int {
	opt.traced = false
	bad := 0
	gap := func(a, b float64) float64 { return math.Abs(a-b) / math.Min(a, b) }
	for i := range selected {
		w := &selected[i]
		a := runWorkload(w, opt, stderr)
		b := runWorkload(w, opt, stderr)
		wallGap := gap(a.CountWall.Median, b.CountWall.Median)
		setupGap := gap(a.Setup.Median, b.Setup.Median)
		verdict := "ok"
		switch {
		case a.Failed+b.Failed > 0:
			verdict = "FAIL: reps failed"
		case w.exact && a.Counts != b.Counts:
			verdict = "FAIL: exact counts differ"
		case !(wallGap <= countWallBound):
			verdict = "FAIL: count_wall_s gap beyond bound"
		case !(setupGap <= setupBound):
			verdict = "FAIL: setup_s gap beyond bound"
		}
		if verdict != "ok" {
			bad++
		}
		fmt.Fprintf(stdout, "%-20s count_wall_s %.6g vs %.6g s gap %.4f (bound %.2f)  setup_s %.6g vs %.6g s gap %.4f (bound %.2f)  exact=%v  %s\n",
			w.name, a.CountWall.Median, b.CountWall.Median, wallGap, countWallBound,
			a.Setup.Median, b.Setup.Median, setupGap, setupBound, w.exact, verdict)
	}
	if bad > 0 {
		return 1
	}
	return 0
}
