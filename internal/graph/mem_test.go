package graph_test

import (
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/part"
)

// maxBytesPerEntry bounds what the 1D views allocate per adjacency entry
// (LocalEdges) across BuildLocalCSR, OrientLocalPar and ContractPar. The
// row-space adjacency holds 4 bytes per entry, the orientation keeps about
// half of them in row space and a transient byte per entry for its keep
// test, the cut ships its few entries with IDs, and per-row tables add the
// rest (9.58 on this input). A global-ID copy of the adjacency (8 bytes per
// entry) or of the expansion's lists (about 4) does not fit under it; the
// view that kept both allocated 20.34.
const maxBytesPerEntry = 11

// TestLocalViewBytesPerEntry is the memory gate of the 1D view: on an RGG2D
// (high locality, the CETRIC showcase) at p = 4 and one thread, the bytes
// allocated by the build, the expansion's orientation and the contraction,
// summed over the PEs, divided by the adjacency entries they hold.
func TestLocalViewBytesPerEntry(t *testing.T) {
	const p = 4
	g := gen.RGG2D(1<<14, 16, 42)
	pt := part.Uniform(uint64(g.NumVertices()), p)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	entries := 0
	for rank := 0; rank < p; rank++ {
		lg := graph.BuildLocalCSR(pt, rank, g, 1)
		setGhostDegrees(lg, g)
		graph.OrientLocalPar(lg, 1).ContractPar(1)
		entries += lg.LocalEdges()
	}
	runtime.ReadMemStats(&after)
	perEntry := float64(after.TotalAlloc-before.TotalAlloc) / float64(entries)
	t.Logf("%.2f bytes allocated per adjacency entry (%d entries)", perEntry, entries)
	if perEntry > maxBytesPerEntry {
		t.Fatalf("the 1D view allocates %.2f bytes per adjacency entry, more than %d", perEntry, maxBytesPerEntry)
	}
}

// maxBytesPerEntryNoLocality bounds the same ratio on a graph without
// locality, where most entries are cut entries and the ghost index takes
// its dense layout: BuildLocalCSR and DITRIC's OrientLocalOnlyPar. The
// view whose ghost index was always a hash allocated 15.99 here, so a dense
// table that cost more than the hash it replaces fails the gate.
const maxBytesPerEntryNoLocality = 16

// TestLocalViewBytesPerEntryNoLocality is the memory gate of the dense
// ghost index: GNM with n = 2^12 and m = 16n at p = 4, one thread.
func TestLocalViewBytesPerEntryNoLocality(t *testing.T) {
	const p, n = 4, 1 << 12
	g := gen.GNM(n, 16*n, 42)
	pt := part.Uniform(uint64(g.NumVertices()), p)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	entries, dense := 0, 0
	for rank := 0; rank < p; rank++ {
		lg := graph.BuildLocalCSR(pt, rank, g, 1)
		setGhostDegrees(lg, g)
		graph.OrientLocalOnlyPar(lg, 1)
		entries += lg.LocalEdges()
		if lg.DenseGhostIndex() {
			dense++
		}
	}
	runtime.ReadMemStats(&after)
	perEntry := float64(after.TotalAlloc-before.TotalAlloc) / float64(entries)
	t.Logf("%.2f bytes allocated per adjacency entry (%d entries, %d of %d PEs dense)", perEntry, entries, dense, p)
	if dense != p {
		t.Fatalf("%d of %d PEs took the dense ghost index; the gate measures it on all", dense, p)
	}
	if perEntry > maxBytesPerEntryNoLocality {
		t.Fatalf("the 1D view allocates %.2f bytes per adjacency entry, more than %d", perEntry, maxBytesPerEntryNoLocality)
	}
}
