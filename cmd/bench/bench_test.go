package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../../BENCHMARK.json from the tables in this package")

const benchmarkJSON = "../../BENCHMARK.json"

// The shape of BENCHMARK.json; field order is the file's key order.
type (
	specWorkload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	specEndToEnd struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	specLayer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	spec struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []specWorkload `json:"workloads"`
		EndToEnd   []specEndToEnd `json:"end_to_end"`
		PerLayer   []specLayer    `json:"per_layer"`
	}
)

// specFromTables is BENCHMARK.json as this package's tables define it.
func specFromTables() spec {
	s := spec{
		Command:    []string{"bash", "cmd/bench/run.sh"},
		Paths:      []string{"cmd/bench"},
		RunSeconds: 10,
	}
	for _, w := range workloads {
		s.Workloads = append(s.Workloads, specWorkload{w.name, w.why})
	}
	for _, d := range endToEnd {
		s.EndToEnd = append(s.EndToEnd, specEndToEnd{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		s.PerLayer = append(s.PerLayer, specLayer{d.Name, d.Unit, d.Better})
	}
	return s
}

func readSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile(benchmarkJSON)
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		t.Fatalf("%s: %v", benchmarkJSON, err)
	}
	return s
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the code that
// prints the metrics from drifting apart: same workloads with their reasons,
// same metric names, units, directions and bounds, in the same order.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	want := specFromTables()
	if *update {
		data, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(benchmarkJSON, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if got := readSpec(t); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the tables in cmd/bench; rerun with -update\n got: %+v\nwant: %+v", got, want)
	}
	for _, w := range workloads {
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
}

// TestQuickRunEmitsEveryMetric runs the whole benchmark in-process on the
// shrunken inputs and checks that every workload and metric BENCHMARK.json
// names comes out, with its unit, from a run in which nothing failed.
func TestQuickRunEmitsEveryMetric(t *testing.T) {
	s := readSpec(t)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-quick", "-seed", "7"}, &stdout, &stderr); code != 0 {
		t.Fatalf("bench -quick exited %d\nstderr:\n%s", code, stderr.String())
	}
	type line struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}
	var lines []line
	seen := make(map[string]bool)
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		text := sc.Text()
		if name, ok := strings.CutPrefix(text, "## "); ok {
			seen[strings.Fields(name)[0]] = true
		}
		if !strings.HasPrefix(text, "{") {
			continue
		}
		var l line
		if err := json.Unmarshal([]byte(text), &l); err != nil {
			t.Fatalf("result line: %v\n%s", err, text)
		}
		lines = append(lines, l)
	}
	if len(lines) != len(s.Workloads) {
		t.Fatalf("%d result lines for %d workloads", len(lines), len(s.Workloads))
	}
	units := make(map[string]string)
	for _, m := range s.EndToEnd {
		units[m.Name] = m.Unit
	}
	for _, m := range s.PerLayer {
		units[m.Name] = m.Unit
	}
	for i, w := range s.Workloads {
		if !seen[w.Name] {
			t.Errorf("workload %s missing from the output", w.Name)
		}
		l := lines[i]
		if !l.Correct || l.Failed != 0 || l.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.Name, l.Correct, l.Attempted, l.Failed)
		}
		for name, unit := range units {
			if got, ok := l.Metrics[name]; !ok {
				t.Errorf("%s: metric %s missing", w.Name, name)
			} else if got.Unit != unit {
				t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", w.Name, name, got.Unit, unit)
			}
		}
		if len(l.Metrics) != len(units) {
			t.Errorf("%s: %d metrics printed, %d declared", w.Name, len(l.Metrics), len(units))
		}
	}
}

// TestSummarizeMatchesPythonQuantiles pins the quartile method to the one
// the acceptance rule uses (statistics.quantiles(values, n=4)).
func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	d := summarize([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if d.Q1 != 2.75 || d.Median != 5.5 || d.Q3 != 8.25 || d.Min != 1 || d.Max != 10 || d.N != 10 {
		t.Errorf("summarize(1..10) = %+v, want quartiles 2.75 5.5 8.25", d)
	}
	if d := summarize([]float64{3}); d.Median != 3 || d.Q1 != 3 || d.Q3 != 3 {
		t.Errorf("summarize of one sample = %+v", d)
	}
}
