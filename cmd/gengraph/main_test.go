package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// TestSavedInstanceReadsBack is the workflow the command promises: a saved
// instance read back by the text reader `tricount -input` uses is the
// generated graph, with its edge count and triangle count.
func TestSavedInstanceReadsBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rmat.txt")
	if err := run([]string{"-gen", "rmat", "-n", "1024", "-o", path}, io.Discard); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := graph.ReadEdgeListText(f)
	if err != nil {
		t.Fatal(err)
	}
	want, err := gen.ByFamily("rmat", 1024, 16, 42)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumEdges() != want.NumEdges() || core.SeqCount(got) != core.SeqCount(want) {
		t.Fatalf("read back m=%d with %d triangles, generated m=%d with %d",
			got.NumEdges(), core.SeqCount(got), want.NumEdges(), core.SeqCount(want))
	}
}

// TestStatsLineShowsLoadTime: the statistics line ends with the wall time
// the generation took.
func TestStatsLineShowsLoadTime(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-gen", "gnm", "-n", "512"}, &out); err != nil {
		t.Fatal(err)
	}
	line := strings.SplitN(out.String(), "\n", 2)[0]
	i := strings.Index(line, " load=")
	if !strings.HasPrefix(line, "n=512 ") || i < 0 {
		t.Fatalf("stats line %q, want n=512 … load=<duration>", line)
	}
	if _, err := time.ParseDuration(line[i+len(" load="):]); err != nil {
		t.Fatalf("stats line %q: load is not a duration: %v", line, err)
	}
}
