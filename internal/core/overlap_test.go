package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/testgraph"
)

// The overlapped pipeline must be observationally identical to the
// barriered path on everything the paper reports: triangle counts, type
// classification, Δ vectors, enumeration. These tests pin it cell by cell
// against the barriered oracle (the seed semantics), exactly as the
// acceptance criteria demand.

func TestOverlapMatchesBarrieredOracle(t *testing.T) {
	for _, fix := range testgraph.All {
		g := fix.Build()
		for _, algo := range []Algorithm{AlgoDiTric, AlgoCetric} {
			for _, p := range []int{1, 2, 4, 8} {
				oracle, err := Run(algo, g, Config{P: p})
				if err != nil {
					t.Fatalf("%s/%s p=%d barriered oracle: %v", algo, fix.Name, p, err)
				}
				if oracle.Count != fix.Triangles {
					t.Fatalf("%s/%s p=%d: barriered oracle counts %d, fixture says %d",
						algo, fix.Name, p, oracle.Count, fix.Triangles)
				}
				for _, threads := range []int{1, 4} {
					t.Run(fmt.Sprintf("%s/%s/p=%d/t=%d", algo, fix.Name, p, threads), func(t *testing.T) {
						res, err := Run(algo, g, Config{P: p, Threads: threads, Overlap: true})
						if err != nil {
							t.Fatal(err)
						}
						if res.Count != oracle.Count {
							t.Fatalf("overlapped count %d, barriered oracle %d", res.Count, oracle.Count)
						}
						if algo == AlgoCetric && res.TypeCounts != oracle.TypeCounts {
							t.Fatalf("overlapped type counts %v, barriered oracle %v",
								res.TypeCounts, oracle.TypeCounts)
						}
					})
				}
			}
		}
	}
}

func TestOverlapIndirectVariants(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(8, 11))
	want := SeqCount(g)
	for _, algo := range []variant{vDiTric2, vCetric2} {
		for _, threads := range []int{1, 4} {
			res, err := algo.run(g, Config{P: 9, Threads: threads, Overlap: true})
			if err != nil {
				t.Fatal(err)
			}
			if res.Count != want {
				t.Fatalf("%s overlapped threads=%d: %d, want %d", algo, threads, res.Count, want)
			}
		}
	}
}

func TestOverlapLCC(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(8, 37))
	_, wantDeltas := SeqDeltas(g)
	for _, algo := range []Algorithm{AlgoDiTric, AlgoCetric} {
		for _, threads := range []int{1, 4} {
			res, err := Run(algo, g, Config{P: 4, Threads: threads, Overlap: true, LCC: true})
			if err != nil {
				t.Fatal(err)
			}
			for v, want := range wantDeltas {
				if res.Deltas[v] != want {
					t.Fatalf("%s overlapped threads=%d: Δ(%d) = %d, want %d",
						algo, threads, v, res.Deltas[v], want)
				}
			}
		}
	}
}

func TestOverlapNoSurrogate(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(8, 67))
	want := SeqCount(g)
	for _, algo := range []Algorithm{AlgoDiTric, AlgoCetric} {
		for _, threads := range []int{1, 3} {
			res, err := Run(algo, g, Config{P: 5, Threads: threads, Overlap: true, noSurrogate: true})
			if err != nil {
				t.Fatal(err)
			}
			if res.Count != want {
				t.Fatalf("%s overlapped no-surrogate threads=%d: %d, want %d",
					algo, threads, res.Count, want)
			}
		}
	}
}

func TestOverlapCollectEnumerates(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(7, 3))
	want := make(map[[3]graph.Vertex]bool)
	SeqEnumerate(g, func(v, u, w graph.Vertex) { want[CanonTriangle(v, u, w)] = true })
	for _, algo := range []Algorithm{AlgoDiTric, AlgoCetric} {
		res, err := Run(algo, g, Config{P: 5, Threads: 2, Overlap: true, Collect: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Triangles) != len(want) {
			t.Fatalf("%s: %d triangles collected, want %d", algo, len(res.Triangles), len(want))
		}
		for _, tri := range res.Triangles {
			if !want[tri] {
				t.Fatalf("%s: spurious triangle %v", algo, tri)
			}
		}
	}
}

func TestOverlapTinyThreshold(t *testing.T) {
	// δ=1 forces a flush (and a poll) on every append: maximal interleaving
	// of sends and receives inside the local stage.
	g := gen.GNM(150, 900, 77)
	want := SeqCount(g)
	for _, algo := range []Algorithm{AlgoDiTric, AlgoCetric} {
		res, err := Run(algo, g, Config{P: 7, Threshold: 1, Overlap: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != want {
			t.Fatalf("%s overlapped δ=1: %d, want %d", algo, res.Count, want)
		}
	}
}

func TestOverlapPhaseAttribution(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(9, 31))
	res, err := Run(AlgoDiTric, g, Config{P: 4, Overlap: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Phases[PhaseGlobalRecv]; !ok {
		t.Fatalf("overlapped run recorded no %q sub-phase: %v", PhaseGlobalRecv, res.Phases)
	}
	// The fold parent must cover its sub-phase.
	if res.Phases[PhaseGlobal] < res.Phases[PhaseGlobalRecv] {
		t.Fatalf("global (%v) < global/recv (%v): fold broken",
			res.Phases[PhaseGlobal], res.Phases[PhaseGlobalRecv])
	}
	if idle, ok := res.Phases[PhaseOverlapIdle]; ok && res.Phases[PhaseOverlap] < idle {
		t.Fatalf("overlap (%v) < overlap/idle (%v): fold broken", res.Phases[PhaseOverlap], idle)
	}
}

// Steal-deque unit coverage: ring growth, batch pops, blocking waits, and
// the closed-and-empty exit.

func TestStealDequeOrderAndGrowth(t *testing.T) {
	dq := newStealDeque()
	const total = 1000
	for i := 0; i < total; i++ {
		dq.push(recvRecord{v: graph.Vertex(i)})
	}
	scratch := make([]recvRecord, 7)
	next := 0
	for {
		k := dq.popBatch(scratch, false)
		if k == 0 {
			break
		}
		for i := 0; i < k; i++ {
			if scratch[i].v != graph.Vertex(next) {
				t.Fatalf("popped %d, want %d (FIFO broken)", scratch[i].v, next)
			}
			next++
		}
	}
	if next != total {
		t.Fatalf("popped %d records, pushed %d", next, total)
	}
}

func TestStealDequeBlockingClose(t *testing.T) {
	dq := newStealDeque()
	var wg sync.WaitGroup
	got := make([]int, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			scratch := make([]recvRecord, dequeBatch)
			for {
				k := dq.popBatch(scratch, true)
				if k == 0 {
					return // closed and empty
				}
				got[w] += k
			}
		}(w)
	}
	for i := 0; i < 500; i++ {
		dq.push(recvRecord{v: graph.Vertex(i)})
	}
	dq.close()
	wg.Wait()
	sum := 0
	for _, n := range got {
		sum += n
	}
	if sum != 500 {
		t.Fatalf("workers drained %d records, want 500", sum)
	}
}
