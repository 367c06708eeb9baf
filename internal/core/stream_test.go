package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/leakcheck"
	"repro/internal/part"
	"repro/internal/testgraph"
)

// Equivalence suite for the streaming driver: RunStream must agree with the
// one-shot Run oracle for every fixture × algorithm × PE count × batch
// size, under arrival-order shuffles, duplicate re-sends, and any split
// between initial build and inserted batches. Run under -race (CI does).

var streamAlgos = []Algorithm{AlgoDiTric, AlgoCetric}

// runStreamSplit streams edges[:split] as the initial build and the rest as
// inserted batches of the given size.
func runStreamSplit(t *testing.T, algo Algorithm, n int, edges []graph.Edge, split, batch int, cfg Config) *StreamResult {
	t.Helper()
	sres, err := RunStream(algo, uint64(n),
		SliceBatches(edges[:split], batch), SliceBatches(edges[split:], batch), cfg)
	if err != nil {
		t.Fatalf("RunStream(%s): %v", algo, err)
	}
	return sres
}

func TestRunStreamMatchesRun(t *testing.T) {
	for _, fx := range testgraph.All {
		g := fx.Build()
		edges := g.Edges()
		for _, algo := range streamAlgos {
			for _, p := range []int{1, 2, 4, 8} {
				cfg := Config{P: p}
				batch := len(edges)/3 + 1
				split := len(edges) / 2
				sres := runStreamSplit(t, algo, g.NumVertices(), edges, split, batch, cfg)
				if sres.Count != fx.Triangles {
					t.Errorf("%s %s p=%d: streamed count %d, want %d (initial %d, deltas %v)",
						fx.Name, algo, p, sres.Count, fx.Triangles, sres.Initial, sres.Deltas)
				}
				if sres.Res.Count != sres.Count {
					t.Errorf("%s %s p=%d: Res.Count %d != Count %d", fx.Name, algo, p, sres.Res.Count, sres.Count)
				}
			}
		}
	}
}

// TestRunStreamBatchSizes sweeps batch-size and split permutations on one
// non-trivial fixture, including single-edge batches and everything-inserted
// (empty initial graph) / everything-initial (no inserts) extremes.
func TestRunStreamBatchSizes(t *testing.T) {
	fx := testgraph.All[2%len(testgraph.All)]
	g := fx.Build()
	edges := g.Edges()
	for _, algo := range streamAlgos {
		for _, batch := range []int{1, 2, 7, len(edges)} {
			for _, split := range []int{0, 1, len(edges) / 2, len(edges)} {
				sres := runStreamSplit(t, algo, g.NumVertices(), edges, split, batch, Config{P: 4})
				if sres.Count != fx.Triangles {
					t.Errorf("%s %s batch=%d split=%d: count %d, want %d",
						fx.Name, algo, batch, split, sres.Count, fx.Triangles)
				}
			}
		}
	}
}

// TestRunStreamShuffledDuplicates feeds a shuffled stream with re-sent
// edges and self-loops: arrival order, duplicates (within and across
// batches), and loops must not change any count.
func TestRunStreamShuffledDuplicates(t *testing.T) {
	for _, fx := range testgraph.All[:4] {
		g := fx.Build()
		edges := g.Edges()
		rng := rand.New(rand.NewSource(42))
		stream := append(append([]graph.Edge{}, edges...), edges[:len(edges)/3]...)
		stream = append(stream, graph.Edge{U: 0, V: 0}) // self-loop
		rng.Shuffle(len(stream), func(i, j int) { stream[i], stream[j] = stream[j], stream[i] })
		for _, algo := range streamAlgos {
			sres := runStreamSplit(t, algo, g.NumVertices(), stream, len(stream)/4, 11, Config{P: 4, Threads: 2})
			if sres.Count != fx.Triangles {
				t.Errorf("%s %s shuffled: count %d, want %d", fx.Name, algo, sres.Count, fx.Triangles)
			}
		}
	}
}

// TestRunStreamDuplicateInsertBatch re-inserts already-resident edges: every
// delta must be zero and the count unchanged.
func TestRunStreamDuplicateInsertBatch(t *testing.T) {
	fx := testgraph.All[0]
	g := fx.Build()
	edges := g.Edges()
	stream := append(append([]graph.Edge{}, edges...), edges...) // full re-send
	sres := runStreamSplit(t, AlgoDiTric, g.NumVertices(), stream, len(edges), 17, Config{P: 4})
	if sres.Count != fx.Triangles || sres.Initial != fx.Triangles {
		t.Fatalf("count %d initial %d, want both %d", sres.Count, sres.Initial, fx.Triangles)
	}
	for b, d := range sres.Deltas {
		if d != 0 {
			t.Errorf("duplicate batch %d produced delta %d", b, d)
		}
	}
}

// TestRunStreamVariants covers indirection, explicit δ, threads, and
// non-uniform ranges on the streamed path.
func TestRunStreamVariants(t *testing.T) {
	for _, name := range []string{"bipartite", "rmat"} {
		fx, _ := testgraph.ByName(name)
		g := fx.Build()
		edges := g.Edges()
		n := uint64(g.NumVertices())
		for _, cfg := range []Config{
			{P: 4, Threads: 3},
			{P: 4, Threshold: 1},
			{P: 4, Threshold: 64},
			{P: 4},
			{P: 3, Indirect: true},
			// Ranges of very different widths: the sender's one-run-per-
			// destination walk and the receiver's partner search both lean on
			// contiguous ownership, not on equal-sized ranges.
			{P: 4, Partition: skewedPartition(n, 4, false)},
			{P: 5, Threshold: 1, Partition: skewedPartition(n, 5, true)},
		} {
			for _, algo := range []variant{vDiTric2, vCetric2, vDiTric, vCetric} {
				sres := runStreamSplit(t, algo.algo, g.NumVertices(), edges, len(edges)/2, 5+len(edges)/50, algo.config(cfg))
				if sres.Count != fx.Triangles {
					t.Errorf("%s %s %+v: count %d, want %d", name, algo, cfg, sres.Count, fx.Triangles)
				}
			}
		}
	}
}

// streamOracle is a sequential single-address-space model of the streamed
// graph: the resident adjacency plus, per batch, every vertex's strictly-new
// neighbors. The distributed engine's per-batch numbers are checked against
// what it derives, independently of StreamBuilder and the queue.
type streamOracle struct {
	adj [][]graph.Vertex // resident neighborhoods, ascending
}

// stage returns Δ(v) for every vertex v: the ascending, duplicate-free
// neighbors batch adds to the resident graph (self-loops dropped).
func (o *streamOracle) stage(batch []graph.Edge) [][]graph.Vertex {
	delta := make([][]graph.Vertex, len(o.adj))
	for _, e := range batch {
		if _, resident := slices.BinarySearch(o.adj[e.U], e.V); resident || e.U == e.V {
			continue
		}
		delta[e.U] = append(delta[e.U], e.V)
		delta[e.V] = append(delta[e.V], e.U)
	}
	for v := range delta {
		slices.Sort(delta[v])
		delta[v] = slices.Compact(delta[v])
	}
	return delta
}

func (o *streamOracle) commit(delta [][]graph.Vertex) {
	for v, dv := range delta {
		o.adj[v] = append(o.adj[v], dv...)
		slices.Sort(o.adj[v])
	}
}

// pairTuple recomputes a staged batch's global (n0, n1, n2) with the
// pairwise merge/gallop kernels alone: one pair call per new edge, no
// marks, no records.
func (o *streamOracle) pairTuple(delta [][]graph.Vertex) [3]uint64 {
	var ref streamState
	for v, dv := range delta {
		for _, w := range dv {
			if graph.Vertex(v) < w {
				ref.pair(o.adj[v], dv, o.adj[w], delta[w])
			}
		}
	}
	return [3]uint64{ref.n0, ref.n1, ref.n2}
}

// TestStreamDeltaReentrancy pins the one-pair-of-marks rule of the delta
// engine. At Threads == 1 with δ = 1 every Send flushes and polls, so
// records are received — and stamped into the marks — in the middle of the
// sending loop. That is safe only because a row ships before it stamps for
// its own local partners; an engine that stamped first must die in
// Mark.Stamp's guard rather than blend two rows into one miscount.
func TestStreamDeltaReentrancy(t *testing.T) {
	for _, name := range []string{"rmat", "K12"} {
		fx, _ := testgraph.ByName(name)
		g := fx.Build()
		edges := g.Edges()
		want := SeqCount(g)
		for _, algo := range streamAlgos {
			for _, p := range []int{2, 4, 6} {
				t.Run(fmt.Sprintf("%s/%s/p=%d", algo, name, p), func(t *testing.T) {
					sres := runStreamSplit(t, algo, g.NumVertices(), edges, len(edges)/4, len(edges)/4+1,
						Config{P: p, Threads: 1, Threshold: 1})
					if sres.Count != want {
						t.Fatalf("count = %d, want %d", sres.Count, want)
					}
				})
			}
		}

		// Whether a goroutine PE really receives mid-send above is up to the
		// scheduler. Here it is forced: rank 2 ships its whole batch before
		// rank 1 starts, so rank 1's first Send finds those records in its
		// inbox and handles them inline.
		rand.New(rand.NewSource(3)).Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		for _, stampFirst := range []bool{false, true} {
			t.Run(fmt.Sprintf("forced/%s/stampFirst=%v", name, stampFirst), func(t *testing.T) {
				const p = 3
				pl, err := prepare(AlgoDiTric, uint64(g.NumVertices()), -1, Config{P: p, Threads: 1, Threshold: 1})
				if err != nil {
					t.Fatal(err)
				}
				var got [3]uint64
				var inline int64
				tuples := make(chan [3]uint64, p)
				shipped := make(chan struct{})
				_, _, err = pl.run(func(pe *dist.PE, _ *peOutcome) error {
					sb := graph.NewStreamBuilder(pl.pt, pe.Rank)
					sb.Fold(graph.ScatterEdges(pl.pt, edges[:len(edges)/2])[pe.Rank], 1)
					sb.Stage(graph.ScatterEdges(pl.pt, edges[len(edges)/2:])[pe.Rank], 1)
					ss := newStreamState(sb, pl.pt.N())
					pe.Q.Handle(chNeighEdge, ss.handle)
					pe.C.Barrier()
					switch pe.Rank {
					case 2:
						func() {
							defer close(shipped) // also on a panic: rank 1 must not wait forever
							ss.countStaged(pe, pl.pt)
						}()
					case 1:
						<-shipped
						if stampFirst {
							// One row of countStaged with the two steps swapped.
							for _, r := range sb.Staged() {
								if dv := sb.StagedRowOf(r); len(dv) > 0 && dv[0] < sb.First() {
									ss.old.Stamp(sb.Row(r))
									ss.delta.Stamp(dv)
									pe.Q.Send(chNeighEdge, pl.pt.Rank(dv[0]), ss.record(r))
								}
							}
						}
						ss.countStaged(pe, pl.pt)
						inline = pe.C.M.RecvFrames // nothing but a Send has polled yet
					default:
						ss.countStaged(pe, pl.pt)
					}
					pe.Q.Drain()
					tuples <- [3]uint64{ss.n0, ss.n1, ss.n2}
					return nil
				})
				if stampFirst {
					// The guard must fire inside the inline-dispatched handler.
					for _, frag := range []string{"graph: Mark stamped while still holding a list", "(*streamState).handle"} {
						if err == nil || !strings.Contains(err.Error(), frag) {
							t.Fatalf("err = %v, want a panic naming %q", err, frag)
						}
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				if inline == 0 {
					t.Fatal("rank 1 received nothing while sending; the re-entrant path did not run")
				}
				for r := 0; r < p; r++ {
					tu := <-tuples
					got[0], got[1], got[2] = got[0]+tu[0], got[1]+tu[1], got[2]+tu[2]
				}
				oracle := streamOracle{adj: make([][]graph.Vertex, g.NumVertices())}
				oracle.commit(oracle.stage(edges[:len(edges)/2]))
				if want := oracle.pairTuple(oracle.stage(edges[len(edges)/2:])); got != want {
					t.Fatalf("(n0,n1,n2) = %v, pairwise kernels give %v", got, want)
				}
			})
		}
	}
}

// TestStreamShipsOncePerDestination: with δ = 1 every shipped record is its
// own flush, so a rank's flush count is its record count — which must be one
// per (touched row, remote PE owning a smaller-ID new neighbor), however many
// new cut edges the row has into that PE. Streams of 0, 1, 2, … insert
// batches over an empty initial graph give the per-batch counts as
// differences (the runs are deterministic).
func TestStreamShipsOncePerDestination(t *testing.T) {
	for _, name := range []string{"rmat", "K12"} {
		fx, _ := testgraph.ByName(name)
		g := fx.Build()
		edges := g.Edges()
		rand.New(rand.NewSource(5)).Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		const p, nb = 4, 4
		batch := (len(edges) + nb - 1) / nb
		pt := part.Uniform(uint64(g.NumVertices()), p)
		oracle := streamOracle{adj: make([][]graph.Vertex, g.NumVertices())}
		want := make([]int64, p) // cumulative over batches
		perEdge := int64(0)
		for b := 0; b <= nb; b++ {
			upto := min(b*batch, len(edges))
			if b > 0 {
				delta := oracle.stage(edges[upto-batch : upto])
				for v, dv := range delta {
					home := pt.Rank(graph.Vertex(v))
					dsts := map[int]bool{}
					for _, w := range dv {
						if w < graph.Vertex(v) && pt.Rank(w) != home {
							dsts[pt.Rank(w)] = true
							perEdge++
						}
					}
					want[home] += int64(len(dsts))
				}
				oracle.commit(delta)
			}
			sres, err := RunStream(AlgoDiTric, uint64(g.NumVertices()), nil, SliceBatches(edges[:upto], batch),
				Config{P: p, Threads: 1, Threshold: 1})
			if err != nil {
				t.Fatal(err)
			}
			if len(sres.Deltas) != b {
				t.Fatalf("%s: %d insert batches ran, want %d", name, len(sres.Deltas), b)
			}
			for r, m := range sres.Res.PerPE {
				if m.Flushes != want[r] {
					t.Errorf("%s after %d batches: rank %d flushed %d records, want %d", name, b, r, m.Flushes, want[r])
				}
			}
		}
		total := int64(0)
		for _, w := range want {
			total += w
		}
		if total == 0 || total >= perEdge {
			t.Errorf("%s: %d records for %d new cut edges — the fixture does not separate per-destination from per-edge shipping", name, total, perEdge)
		}
	}
}

// BenchmarkStreamDeltaSteadyState measures allocs/op of the delta engine's
// record path on a staged batch: rank 1 assembles every record it would ship
// to rank 0 (send scratch) and rank 0 handles it — partner search, stamping
// both marks, probing, un-stamping, and the gallop fallback for skewed
// partners. Marks and scratch are sized on the warm-up pass, so the steady
// state must report zero allocations (CI allocation gate).
func BenchmarkStreamDeltaSteadyState(b *testing.B) {
	g := gen.RMAT(gen.DefaultRMAT(10, 42))
	edges := g.Edges()
	rand.New(rand.NewSource(42)).Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	n := uint64(g.NumVertices())
	pt := part.Uniform(n, 2)
	var ss [2]*streamState
	for r := range ss {
		sb := graph.NewStreamBuilder(pt, r)
		sb.Fold(graph.ScatterEdges(pt, edges[:len(edges)/2])[r], 1)
		sb.Stage(graph.ScatterEdges(pt, edges[len(edges)/2:])[r], 1)
		ss[r] = newStreamState(sb, n)
	}
	var rows []int32 // rank 1's touched rows with a new neighbor on rank 0
	for _, r := range ss[1].sb.Staged() {
		if dv := ss[1].sb.StagedRowOf(r); len(dv) > 0 && dv[0] < ss[1].sb.First() {
			rows = append(rows, r)
		}
	}
	replay := func() {
		for _, r := range rows {
			ss[0].handle(1, ss[1].record(r))
		}
	}
	replay() // grow the send scratch
	ss[0].n0, ss[0].n1, ss[0].n2 = 0, 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replay()
	}
	b.StopTimer()
	if ss[0].n0 == 0 || ss[0].n1 == 0 || ss[0].n2 == 0 {
		b.Fatalf("a triangle category stayed empty (n0=%d n1=%d n2=%d); the benchmark is vacuous", ss[0].n0, ss[0].n1, ss[0].n2)
	}
}

func TestRunStreamValidation(t *testing.T) {
	if _, err := RunStream(AlgoTriC, 8, nil, nil, Config{P: 2}); err == nil {
		t.Error("expected error for non-DITRIC/CETRIC algorithm")
	}
	if _, err := RunStream(AlgoDiTric, 8, nil, nil, Config{P: 2, LCC: true}); err == nil {
		t.Error("expected error for LCC while streaming")
	}
	if _, err := RunStream(AlgoDiTric, 8, nil, nil, Config{}); err == nil {
		t.Error("expected error for P = 0")
	}
	// Empty stream: zero triangles, no deltas.
	sres, err := RunStream(AlgoCetric, 8, nil, nil, Config{P: 2})
	if err != nil || sres.Count != 0 || len(sres.Deltas) != 0 {
		t.Errorf("empty stream: %v %+v", err, sres)
	}
}

// TestRunStreamRejectsOutOfRangeVertex: an endpoint ≥ n, in an initial or
// an insert batch and at any P, fails the run with an error naming the
// vertex and n; the PEs are released and no goroutine survives.
func TestRunStreamRejectsOutOfRangeVertex(t *testing.T) {
	leakcheck.Check(t)
	good := []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}}
	bad := []graph.Edge{{U: 0, V: 7}}
	for _, c := range []struct {
		name             string
		initial, inserts []graph.Edge
		p                int
	}{
		{"initial p=2", bad, nil, 2},
		{"initial p=1", bad, nil, 1},
		{"insert p=2", good, bad, 2},
		{"insert p=1", good, bad, 1},
		{"second insert p=3", good, append(slices.Clone(good), bad...), 3},
	} {
		for _, algo := range streamAlgos {
			t.Run(fmt.Sprintf("%s/%s", c.name, algo), func(t *testing.T) {
				var inserts BatchSource
				if c.inserts != nil {
					inserts = SliceBatches(c.inserts, 2)
				}
				_, err := RunStream(algo, 3, SliceBatches(c.initial, 2), inserts, Config{P: c.p})
				if err == nil || !strings.Contains(err.Error(), "vertex 7") || !strings.Contains(err.Error(), "n=3") {
					t.Fatalf("err = %v, want one naming vertex 7 and n=3", err)
				}
			})
		}
	}
}

// TestRunStreamPhases checks the stream phase accounting: ingest folds into
// preprocess, the per-batch sub-phases fold into the stream parent.
func TestRunStreamPhases(t *testing.T) {
	g := testgraph.All[0].Build()
	edges := g.Edges()
	sres := runStreamSplit(t, AlgoDiTric, g.NumVertices(), edges, len(edges)/2, 7, Config{P: 2})
	ph := sres.Res.Phases
	if _, ok := ph[PhaseIngest]; !ok {
		t.Errorf("missing %s phase: %v", PhaseIngest, ph)
	}
	if _, ok := ph[PhaseStreamDelta]; !ok {
		t.Errorf("missing %s phase: %v", PhaseStreamDelta, ph)
	}
	for name := range ph {
		if strings.HasPrefix(name, PhaseStream+"/") && ph[PhaseStream] < ph[name] {
			t.Errorf("sub-phase %s (%v) not folded into %s (%v)", name, ph[name], PhaseStream, ph[PhaseStream])
		}
	}
}

// FuzzStreamBatches drives RunStream with fuzzer-chosen fixture, batch
// size, initial/insert split, arrival order, and algorithm, against the
// precomputed fixture counts (the same oracle as the one-shot suite).
func FuzzStreamBatches(f *testing.F) {
	f.Add(uint8(0), uint8(3), uint16(100), int64(1))
	f.Add(uint8(5), uint8(1), uint16(0), int64(7))
	f.Add(uint8(11), uint8(64), uint16(65535), int64(-3))
	f.Fuzz(func(t *testing.T, fxSel, batchSel uint8, splitSel uint16, seed int64) {
		fx := testgraph.All[int(fxSel)%len(testgraph.All)]
		g := fx.Build()
		edges := g.Edges()
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		batch := int(batchSel)%64 + 1
		split := int(splitSel) % (len(edges) + 1)
		algo := streamAlgos[int(seed&1)]
		p := []int{1, 2, 4}[int(uint16(seed>>1))%3]
		sres, err := RunStream(algo, uint64(g.NumVertices()),
			SliceBatches(edges[:split], batch), SliceBatches(edges[split:], batch), Config{P: p})
		if err != nil {
			t.Fatalf("%s %s p=%d batch=%d split=%d: %v", fx.Name, algo, p, batch, split, err)
		}
		if sres.Count != fx.Triangles {
			t.Fatalf("%s %s p=%d batch=%d split=%d: count %d, want %d",
				fx.Name, algo, p, batch, split, sres.Count, fx.Triangles)
		}
		// Per batch, the stamped record kernel must land every closing vertex
		// in the same category as one pairwise intersection per new edge.
		oracle := streamOracle{adj: make([][]graph.Vertex, g.NumVertices())}
		oracle.commit(oracle.stage(edges[:split]))
		for b, lo := 0, split; lo < len(edges); b, lo = b+1, lo+batch {
			delta := oracle.stage(edges[lo:min(lo+batch, len(edges))])
			if want := oracle.pairTuple(delta); sres.tuples[b] != want {
				t.Fatalf("%s %s p=%d batch=%d split=%d: batch %d (n0,n1,n2) = %v, pairwise kernels give %v",
					fx.Name, algo, p, batch, split, b, sres.tuples[b], want)
			}
			oracle.commit(delta)
		}
	})
}

// TestOverlapWatermarkClamp pins the eager-flush watermark for every δ in
// 1..1024 (DefaultThreshold's floor region): the watermark must stay at
// least 1 and strictly below δ for all δ > 1, so eager flushing keeps
// firing before the overflow flush — the bug was overlapFlushWords ≥ δ
// silently disabling it.
func TestOverlapWatermarkClamp(t *testing.T) {
	for delta := 1; delta <= 1024; delta++ {
		wm := overlapWatermark(delta)
		if wm < 1 {
			t.Fatalf("δ=%d: watermark %d < 1", delta, wm)
		}
		if delta > 1 && wm >= delta {
			t.Fatalf("δ=%d: watermark %d not below δ", delta, wm)
		}
		if wm > overlapFlushWords {
			t.Fatalf("δ=%d: watermark %d above overlapFlushWords", delta, wm)
		}
	}
	if wm := overlapWatermark(1 << 20); wm != overlapFlushWords {
		t.Fatalf("large δ: watermark %d, want %d", wm, overlapFlushWords)
	}
}

// TestOverlapWatermarkProfileTable pins the watermark's profile over δ:
// wm = min(overlapFlushWords, δ/2) with floor 1, so the δ/2 clamp wins
// below 2048 words and the 1024-word constant above.
func TestOverlapWatermarkProfileTable(t *testing.T) {
	for _, tc := range []struct{ delta, want int }{
		{1, 1}, {2, 1}, {3, 1}, {100, 50}, {1024, 512}, {2047, 1023},
		{2048, 1024}, {4096, 1024}, {1 << 20, 1024},
	} {
		if got := overlapWatermark(tc.delta); got != tc.want {
			t.Errorf("δ=%d: watermark %d, want %d", tc.delta, got, tc.want)
		}
	}
}

// TestOverlapTinyThresholds runs the overlapped pipeline across tiny δ
// values (the clamped-watermark regime) and checks counts stay exact.
func TestOverlapTinyThresholds(t *testing.T) {
	fx := testgraph.All[0]
	g := fx.Build()
	for _, delta := range []int{1, 2, 3, 8, 100, 1023, 1024} {
		for _, algo := range streamAlgos {
			res, err := Run(algo, g, Config{P: 4, Threshold: delta, Overlap: true})
			if err != nil {
				t.Fatalf("%s δ=%d: %v", algo, delta, err)
			}
			if res.Count != fx.Triangles {
				t.Errorf("%s δ=%d: count %d, want %d", algo, delta, res.Count, fx.Triangles)
			}
		}
	}
}

// TestStreamFeedReleaseIsAnAbortEcho: a PE parked on its batch feed sits
// outside the transport, so RunStream releases it through abortCh when a
// sibling fails. What it then returns must read as an echo of that failure
// (dist.ErrAborted), not as a body error — CauseBody outranks CauseWatchdog,
// and the run would be blamed on the PE that was merely interrupted.
func TestStreamFeedReleaseIsAnAbortEcho(t *testing.T) {
	feed := make(chan feedItem) // never fed, never closed
	abortCh := make(chan struct{})
	watchdog := &comm.WatchdogError{Where: "drain", Waited: time.Second}
	_, err := dist.Run(dist.Config{P: 2}, func(pe *dist.PE) error {
		if pe.Rank == 0 {
			_, _, err := recvFeed(feed, abortCh) // parked until rank 1 fails
			return err
		}
		close(abortCh) // RunStream's body wrapper does this for a failing PE
		return watchdog
	})
	var re *dist.RunError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want a *dist.RunError", err)
	}
	if re.Cause != dist.CauseWatchdog || re.Rank != 1 || !errors.Is(err, watchdog) {
		t.Fatalf("run blamed on PE %d, cause %s (%v); want PE 1, %s", re.Rank, re.Cause, err, dist.CauseWatchdog)
	}
}
