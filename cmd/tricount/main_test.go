package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// TestApproxConfig pins how -approx reads -algo: cetric runs direct
// delivery, cetric2 keeps its indirection, and every other algorithm is an
// error naming it rather than a silent CETRIC run.
func TestApproxConfig(t *testing.T) {
	for _, tc := range []struct {
		algo     string
		ok       bool
		indirect bool
	}{
		{"cetric", true, false},
		{"cetric2", true, true},
		{"ditric", false, false},
		{"ditric2", false, false},
		{"noagg", false, false},
		{"tk2d", false, false},
		{"tric", false, false},
		{"seq", false, false},
	} {
		cfg := core.Config{P: 4, Threads: 2}
		algo, err := resolveAlgo(tc.algo, true, &cfg)
		if !tc.ok {
			if err == nil || !strings.Contains(err.Error(), tc.algo) {
				t.Errorf("-algo %s -approx: err %v, want an error naming %s", tc.algo, err, tc.algo)
			}
			continue
		}
		if err != nil {
			t.Errorf("-algo %s -approx: %v", tc.algo, err)
			continue
		}
		if algo != core.AlgoCetric || cfg.Indirect != tc.indirect || cfg.P != 4 || cfg.Threads != 2 {
			t.Errorf("-algo %s -approx: %s %+v, want cetric with Indirect=%v and P, Threads kept",
				tc.algo, algo, cfg, tc.indirect)
		}
	}
}

// TestResolveAlgo pins the -algo table every distributed path reads: the
// names ditric2, cetric2 and noagg are config bits on DITRIC and CETRIC, and
// a name or -delta the table cannot honour is an error.
func TestResolveAlgo(t *testing.T) {
	for _, tc := range []struct {
		name      string
		delta     int
		algo      core.Algorithm
		indirect  bool
		threshold int
		err       string // non-empty: the error must contain it
	}{
		{name: "ditric", algo: core.AlgoDiTric},
		{name: "ditric2", algo: core.AlgoDiTric, indirect: true},
		{name: "cetric", delta: 64, algo: core.AlgoCetric, threshold: 64},
		{name: "cetric2", algo: core.AlgoCetric, indirect: true},
		{name: "noagg", algo: core.AlgoDiTric, threshold: 1},
		{name: "noagg", delta: 1, algo: core.AlgoDiTric, threshold: 1},
		{name: "noagg", delta: 5, err: "-delta 5"},
		{name: "tk2d", algo: core.AlgoTK2D},
		{name: "tric", algo: core.AlgoTriC},
		{name: "ditric3", err: `"ditric3"`},
		{name: "seq", err: `"seq"`},
	} {
		cfg := core.Config{P: 4, Threshold: tc.delta}
		algo, err := resolveAlgo(tc.name, false, &cfg)
		if tc.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("-algo %s -delta %d: err %v, want one containing %s", tc.name, tc.delta, err, tc.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("-algo %s -delta %d: %v", tc.name, tc.delta, err)
			continue
		}
		if algo != tc.algo || cfg.Indirect != tc.indirect || cfg.Threshold != tc.threshold || cfg.P != 4 {
			t.Errorf("-algo %s -delta %d: %s with Indirect=%v Threshold=%d, want %s with Indirect=%v Threshold=%d",
				tc.name, tc.delta, algo, cfg.Indirect, cfg.Threshold, tc.algo, tc.indirect, tc.threshold)
		}
	}
}

// TestCheckTCPRank: a -tcp-rank process counts exactly and returns only the
// global count, so each flag it cannot honour is an error naming the flag,
// and a plain exact run passes.
func TestCheckTCPRank(t *testing.T) {
	if err := checkTCPRank(map[string]bool{}); err != nil {
		t.Fatalf("plain run: %v", err)
	}
	for _, name := range []string{"approx", "stream", "lcc"} {
		err := checkTCPRank(map[string]bool{name: true})
		if err == nil || !strings.Contains(err.Error(), "-"+name) {
			t.Errorf("-tcp-rank -%s: err %v, want an error naming -%s", name, err, name)
		}
	}
}

// TestCheckModeFlags: a flag the chosen mode would ignore — -batch without
// -stream, -bits without -approx, -overlap on an algorithm with no
// overlapped schedule — or a negative -batch is an error naming the flag;
// each flag in its own mode, and no flag at all, passes.
func TestCheckModeFlags(t *testing.T) {
	for _, tc := range []struct {
		name           string
		set            []string
		algo           string // -algo; empty is the default, cetric
		stream, approx bool
		batch          int
		err            string // non-empty: the error must contain it
	}{
		{name: "plain run"},
		{name: "-stream -batch 10", set: []string{"stream", "batch"}, stream: true, batch: 10},
		{name: "-stream -batch 0", set: []string{"stream", "batch"}, stream: true},
		{name: "-approx -bits 4", set: []string{"approx", "bits"}, approx: true},
		{name: "-batch 10", set: []string{"batch"}, batch: 10, err: "-batch"},
		{name: "-approx -batch 10", set: []string{"approx", "batch"}, approx: true, batch: 10, err: "-batch"},
		{name: "-bits 4", set: []string{"bits"}, err: "-bits"},
		{name: "-stream -bits 4", set: []string{"stream", "bits"}, stream: true, err: "-bits"},
		{name: "-stream -batch -5", set: []string{"stream", "batch"}, stream: true, batch: -5, err: "-batch -5"},
		{name: "-overlap -algo cetric", set: []string{"overlap"}, algo: "cetric"},
		{name: "-overlap -algo noagg", set: []string{"overlap"}, algo: "noagg"},
		{name: "-overlap -approx", set: []string{"overlap", "approx"}, algo: "cetric", approx: true},
		{name: "-overlap -algo tk2d", set: []string{"overlap"}, algo: "tk2d", err: "-overlap"},
		{name: "-overlap -algo tric", set: []string{"overlap"}, algo: "tric", err: "-overlap"},
		{name: "-overlap -algo seq", set: []string{"overlap"}, algo: "seq", err: "-overlap"},
	} {
		set := map[string]bool{}
		for _, name := range tc.set {
			set[name] = true
		}
		err := checkModeFlags(set, tc.algo, tc.stream, tc.approx, tc.batch)
		if tc.err == "" && err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)) {
			t.Errorf("%s: err %v, want an error naming %s", tc.name, err, tc.err)
		}
	}
}

// TestMain lets a test run the command itself: the test binary, started
// with "tricount" as its first argument, is tricount with the arguments
// that follow.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "tricount" {
		os.Args = os.Args[1:]
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestUnknownAlgoExitsBeforeTheGraph: a misspelt -algo is an error before
// anything is generated — exit 1 naming it, and no "graph:" line.
func TestUnknownAlgoExitsBeforeTheGraph(t *testing.T) {
	cmd := exec.Command(os.Args[0], "tricount", "-algo", "havoq", "-gen", "rmat", "-n", "256")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("exit: %v, want status 1 (stderr %q)", err, stderr.String())
	}
	if want := `tricount: unknown algorithm "havoq"`; !strings.Contains(stderr.String(), want) {
		t.Fatalf("stderr %q, want it to contain %q", stderr.String(), want)
	}
	if strings.Contains(stdout.String(), "graph:") {
		t.Fatalf("the graph was built before -algo was resolved: stdout %q", stdout.String())
	}
}

// TestOverlapWithoutPipelineExitsBeforeTheGraph: -overlap selects a
// schedule of the DITRIC/CETRIC counting pipeline, so with -algo tk2d, tric
// or seq it is an error before anything is generated — exit 1 naming the
// flag, and no "graph:" line.
func TestOverlapWithoutPipelineExitsBeforeTheGraph(t *testing.T) {
	for _, algo := range []string{"tk2d", "tric", "seq"} {
		cmd := exec.Command(os.Args[0], "tricount", "-algo", algo, "-overlap", "-gen", "rmat", "-n", "256", "-p", "4")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("-algo %s: exit %v, want status 1 (stderr %q)", algo, err, stderr.String())
		}
		if !strings.Contains(stderr.String(), "tricount: -overlap") {
			t.Fatalf("-algo %s: stderr %q, want an error naming -overlap", algo, stderr.String())
		}
		if strings.Contains(stdout.String(), "graph:") {
			t.Fatalf("-algo %s: the graph was built before -overlap was checked: stdout %q", algo, stdout.String())
		}
	}
}

// TestVerboseLoadLine: -v prints one load: line with the input's wall time
// after the graph: line, for a generated and for a read input.
func TestVerboseLoadLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tri.txt")
	if err := os.WriteFile(path, []byte("0 1\n1 2\n2 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		how  string
	}{
		{[]string{"-gen", "rmat", "-n", "256", "-algo", "seq", "-v"}, "(generate)"},
		{[]string{"-input", path, "-algo", "seq", "-v"}, "(read and build)"},
	} {
		cmd := exec.Command(os.Args[0], append([]string{"tricount"}, tc.args...)...)
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		var loads []string
		for _, line := range strings.Split(string(out), "\n") {
			if strings.HasPrefix(line, "load: ") {
				loads = append(loads, line)
			}
		}
		if len(loads) != 1 || !strings.HasSuffix(loads[0], tc.how) || !strings.Contains(string(out), "graph: ") {
			t.Fatalf("%v: load lines %q, want one ending %q beside the graph: line", tc.args, loads, tc.how)
		}
		dur := strings.TrimSuffix(strings.TrimPrefix(loads[0], "load: "), " "+tc.how)
		if _, err := time.ParseDuration(dur); err != nil {
			t.Fatalf("%v: %q is not a duration: %v", tc.args, dur, err)
		}
	}
}
