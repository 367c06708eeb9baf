package main

import (
	"io"
	"os"
	"path/filepath"
	"testing"

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
