package core

import (
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/leakcheck"
	"repro/internal/testgraph"
)

// TestSeqCountAnyWorkers runs SeqCount's loop at 1, 2, 3 and 8 workers: on
// the 12 fixtures it must give the fixture's count and NaiveCount's, and on
// one graph per generator family at 4096 vertices, each several of
// ParallelFor's chunks, NaiveCount's.
func TestSeqCountAnyWorkers(t *testing.T) {
	leakcheck.Check(t)
	type input struct {
		name string
		g    *graph.Graph
		want uint64
	}
	var inputs []input
	for _, fix := range testgraph.All {
		g := fix.Build()
		if naive := NaiveCount(g); naive != fix.Triangles {
			t.Fatalf("%s: NaiveCount = %d, fixture says %d", fix.Name, naive, fix.Triangles)
		}
		inputs = append(inputs, input{fix.Name, g, fix.Triangles})
	}
	for _, in := range testgraph.Sized(4096) {
		g := in.Build()
		inputs = append(inputs, input{in.Name, g, NaiveCount(g)})
	}
	for _, in := range inputs {
		for _, th := range []int{1, 2, 3, 8} {
			if got := seqCount(th, in.g); got != in.want {
				t.Errorf("%s at %d workers: SeqCount = %d, want %d", in.name, th, got, in.want)
			}
		}
	}
}

// TestSeqCountAllocBound holds SeqCount to its documented memory: Orient's
// two arrays (n+1 offsets and m out-entries, 8 B each) and one n-byte mark
// per worker, with 64 KiB to spare for the workers' closures and goroutines.
// On R-MAT 2¹⁵ one mark is 32 KiB, so a mark per chunk instead of per
// worker would break it.
func TestSeqCountAllocBound(t *testing.T) {
	g, err := gen.ByFamily("rmat", 1<<15, 16, 42)
	if err != nil {
		t.Fatal(err)
	}
	n, m := uint64(g.NumVertices()), uint64(g.NumEdges())
	for _, th := range []int{1, 2, 3} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		seqCount(th, g)
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		if bound := 8*(n+1) + 8*m + uint64(th)*n + 64<<10; got > bound {
			t.Errorf("%d workers: SeqCount allocated %d B, bound %d B", th, got, bound)
		}
	}
}

// FuzzSeqCount checks SeqCount at 1 and 3 workers against NaiveCount on
// random edge lists over at most 64 vertices: each byte pair of data is an
// edge, taken mod n.
func FuzzSeqCount(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 2, 0}, uint8(2))
	f.Add([]byte{0, 1, 0, 2, 0, 3, 1, 2, 1, 3, 2, 3, 3, 3, 4, 0}, uint8(4))
	f.Fuzz(func(t *testing.T, data []byte, nRaw uint8) {
		n := 1 + int(nRaw)%64
		edges := make([]graph.Edge, 0, len(data)/2)
		for i := 0; i+1 < len(data); i += 2 {
			edges = append(edges, graph.Edge{U: uint64(int(data[i]) % n), V: uint64(int(data[i+1]) % n)})
		}
		g := graph.FromEdges(n, edges)
		want := NaiveCount(g)
		for _, th := range []int{1, 3} {
			if got := seqCount(th, g); got != want {
				t.Fatalf("%d workers: SeqCount = %d, NaiveCount = %d", th, got, want)
			}
		}
	})
}

// BenchmarkSeqCount counts the benchmark rows' graphs at their sizes on
// runtime.GOMAXPROCS(0) workers, each graph built before the timer starts.
func BenchmarkSeqCount(b *testing.B) {
	for _, in := range testgraph.Bench {
		b.Run(in.Name, func(b *testing.B) {
			g := in.Build()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				SeqCount(g)
			}
		})
	}
}
