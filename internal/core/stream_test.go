package core

import (
	"encoding/binary"
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

// TestStreamDeltaReentrancy pins the one-mark rule of the delta engine. At
// Threads == 1 with δ = 1 every Send flushes and polls, so records are
// received — and stamped into the mark — in the middle of the sending loop.
// That is safe only because a row ships before it stamps for its own local
// partners; an engine that stamped first must die in SplitMark.Stamp's
// guard rather than blend two rows into one miscount.
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
									ss.mark.Stamp(sb.Row(r), dv)
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

// TestStreamBitmapRowTuples follows one hub row through its row bitmap's
// life cycle: it stays below BitsetWords(n) entries at Seal, crosses it in a
// middle batch's Commit, and gains entries in every later batch, while short
// rows keep closing triangles with it. At every p the hub is the partner of
// some of those new edges, on both sides of a range boundary once p > 1, so a
// bitmap that missed a Commit shows up as a per-batch (n0, n1, n2) off the
// pairwise kernels.
func TestStreamBitmapRowTuples(t *testing.T) {
	const n = 2048
	const hub = graph.Vertex(n/2 - 1) // the last ID of a range at p = 2 and 4
	stride := graph.BitsetWords(n)
	rng := rand.New(rand.NewSource(9))
	// Thirty hub neighbors below the hub inside its range at p ≤ 4, thirty
	// above it in the next ranges.
	var nbrs []graph.Vertex
	for _, x := range rng.Perm(n/4 - 1)[:30] {
		nbrs = append(nbrs, graph.Vertex(n/4+x))
	}
	for _, x := range rng.Perm(n / 2)[:30] {
		nbrs = append(nbrs, graph.Vertex(n/2+x))
	}
	// batches[0] is the initial graph and holds 20 hub edges; each insert
	// batch brings 10 more, so the hub row ends batch 0 at 30 entries, crosses
	// 32 = BitsetWords(n) in batch 1's Commit and grows in batches 2 and 3.
	batches := make([][]graph.Edge, 5)
	for i, x := range nbrs {
		b := max(0, (i-10)/10)
		batches[b] = append(batches[b], graph.Edge{U: hub, V: x})
	}
	for i, x := range nbrs {
		for _, y := range nbrs[i+1:] {
			if rng.Intn(7) == 0 {
				b := rng.Intn(len(batches))
				batches[b] = append(batches[b], graph.Edge{U: x, V: y})
			}
		}
	}
	for i := 0; i < 2000; i++ {
		b := rng.Intn(len(batches))
		batches[b] = append(batches[b], graph.Edge{U: graph.Vertex(rng.Intn(n)), V: graph.Vertex(rng.Intn(n))})
	}

	oracle := streamOracle{adj: make([][]graph.Vertex, n)}
	oracle.commit(oracle.stage(batches[0]))
	var want [][3]uint64
	for b, batch := range batches[1:] {
		before := len(oracle.adj[hub])
		delta := oracle.stage(batch)
		want = append(want, oracle.pairTuple(delta))
		oracle.commit(delta)
		if after := len(oracle.adj[hub]); after <= before || (before >= stride) != (b >= 2) {
			t.Fatalf("insert batch %d takes the hub row from %d to %d entries; the fixture must cross %d in batch 1 and grow in every batch",
				b, before, after, stride)
		}
	}

	for _, algo := range streamAlgos {
		for _, p := range []int{1, 2, 4} {
			next := 1
			inserts := func() []graph.Edge {
				if next == len(batches) {
					return nil
				}
				next++
				return batches[next-1]
			}
			sres, err := RunStream(algo, n, SliceBatches(batches[0], 0), inserts, Config{P: p})
			if err != nil {
				t.Fatalf("%s p=%d: %v", algo, p, err)
			}
			if !slices.Equal(sres.tuples, want) {
				t.Errorf("%s p=%d: per-batch (n0,n1,n2) = %v, pairwise kernels give %v", algo, p, sres.tuples, want)
			}
		}
	}
}

// hostileStream is a two-PE stream on 256 vertices whose rank 0 holds a row
// far longer than any record: vertex 0, adjacent to 1..200. Unsealed, a
// short record meets it through the pairwise gallop; sealed, through its
// row bitmap. The batch gives rank 1's row 210 a new edge to 0, closing
// triangles with 0 through 3 (old) and 211 (new).
func hostileStream(seal bool) [2]*streamState {
	const n = 256
	pt := part.Uniform(n, 2)
	var initial []graph.Edge
	for x := graph.Vertex(1); x <= 200; x++ {
		initial = append(initial, graph.Edge{U: 0, V: x})
	}
	initial = append(initial, graph.Edge{U: 210, V: 211}, graph.Edge{U: 210, V: 3})
	inserts := []graph.Edge{{U: 210, V: 0}, {U: 211, V: 0}, {U: 3, V: 211}}
	var ss [2]*streamState
	for r := range ss {
		sb := graph.NewStreamBuilder(pt, r)
		sb.Fold(graph.ScatterEdges(pt, initial)[r], 1)
		if seal {
			sb.Seal(1)
		}
		sb.Stage(graph.ScatterEdges(pt, inserts)[r], 1)
		ss[r] = newStreamState(sb, n)
	}
	return ss
}

// pairRecord is the pairwise-kernel oracle for one received record: one
// pair call per partner the record has on ss's PE.
func pairRecord(ss *streamState, rec []uint64) [3]uint64 {
	dv, ov := rec[2:2+rec[1]], rec[2+rec[1]:]
	var ref streamState
	for _, w := range span(dv, ss.sb.First(), ss.sb.Last()) {
		r := int32(w - ss.sb.First())
		ref.pair(ov, dv, ss.sb.Row(r), ss.sb.StagedRowOf(r))
	}
	return [3]uint64{ref.n0, ref.n1, ref.n2}
}

// TestStreamRecordRejectsHostileFrames: a delta record whose header does not
// describe its words, whose lists are out of range or out of order, or whose
// lists meet each other or name v itself, is a corrupt frame from its
// sender — never an index out of range, and never a count of garbage —
// whether its partner meets it through the gallop, the mark or a row bitmap. A record record() built passes and counts what the
// pairwise kernels count.
func TestStreamRecordRejectsHostileFrames(t *testing.T) {
	for _, seal := range []bool{false, true} {
		ss := hostileStream(seal)
		for _, tc := range []struct {
			name string
			rec  []uint64
		}{
			{"empty record", nil},
			{"header-only record", []uint64{210}},
			{"record shorter than its Δ", []uint64{210, 3, 0, 3}},
			{"Δ length 2^40", []uint64{210, 1 << 40, 0, 3}},
			{"Δ entry ≥ n", []uint64{210, 2, 0, 256, 211}},
			{"old entry ≥ n", []uint64{210, 1, 0, 211, 1 << 40}},
			{"vertex ≥ n", []uint64{256, 1, 0, 211}},
			{"Δ descending", []uint64{210, 2, 3, 0, 211}},
			{"Δ repeated", []uint64{210, 2, 0, 0, 211}},
			{"old descending", []uint64{210, 1, 0, 212, 211}},
			{"old repeated", []uint64{210, 1, 0, 211, 211}},
			{"Δ meets old", []uint64{210, 1, 0, 0, 3, 211}},
			{"Δ names v", []uint64{210, 2, 0, 210, 3, 211}},
			{"old names v", []uint64{210, 1, 0, 3, 210, 211}},
		} {
			t.Run(fmt.Sprintf("seal=%v/%s", seal, tc.name), func(t *testing.T) {
				if cf := corruptFrom(func() { ss[0].handle(1, tc.rec) }); cf == nil || cf.Src != 1 {
					t.Fatalf("handle(%v) raised %v, want a *comm.CorruptFrameError from 1", tc.rec, cf)
				}
				if !ss[0].mark.IsClear() {
					t.Fatal("a rejected record left bits in the mark")
				}
			})
		}
		rec := slices.Clone(ss[1].record(210 - int32(ss[1].sb.First())))
		ss[0].n0, ss[0].n1, ss[0].n2 = 0, 0, 0
		if cf := corruptFrom(func() { ss[0].handle(1, rec) }); cf != nil {
			t.Fatalf("seal=%v: a record record() built was rejected: %v", seal, cf)
		}
		if got, want := [3]uint64{ss[0].n0, ss[0].n1, ss[0].n2}, pairRecord(ss[0], rec); got != want || got == [3]uint64{} {
			t.Fatalf("seal=%v: record %v counts %v, pairwise kernels give %v (must be non-zero)", seal, rec, got, want)
		}
	}
}

// FuzzStreamRecord hands random words to a fixed two-PE stream as a record
// from rank 1. The handler either rejects them as a corrupt frame from 1 or
// counts what the pairwise kernels count on the same lists; either way the
// byte mark is all-zero afterwards and a record record() built still
// counts exactly.
func FuzzStreamRecord(f *testing.F) {
	fx, _ := testgraph.ByName("rmat")
	ss := stagedPair(fx.Build(), 7)
	rows := shippedRows(ss)
	var valid [][]uint64
	for _, r := range rows[:min(len(rows), 4)] {
		valid = append(valid, slices.Clone(ss[1].record(r)))
	}
	bytesOf := func(words []uint64) []byte {
		b := make([]byte, 8*len(words))
		for i, w := range words {
			binary.LittleEndian.PutUint64(b[8*i:], w)
		}
		return b
	}
	for _, rec := range valid {
		f.Add(bytesOf(rec))
	}
	f.Add([]byte{})
	f.Add(bytesOf([]uint64{300, 1 << 40, 1}))
	handle := func(t *testing.T, rec []uint64) (tuple [3]uint64, cf *comm.CorruptFrameError) {
		ss[0].n0, ss[0].n1, ss[0].n2 = 0, 0, 0
		cf = corruptFrom(func() { ss[0].handle(1, rec) })
		if !ss[0].mark.IsClear() {
			t.Fatalf("record %v left bits in the mark", rec)
		}
		return [3]uint64{ss[0].n0, ss[0].n1, ss[0].n2}, cf
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rec := make([]uint64, len(data)/8)
		for i := range rec {
			rec[i] = binary.LittleEndian.Uint64(data[8*i:])
		}
		if got, cf := handle(t, rec); cf != nil {
			if cf.Src != 1 {
				t.Fatalf("corrupt record blamed on %d, want 1", cf.Src)
			}
		} else if want := pairRecord(ss[0], rec); got != want {
			t.Fatalf("record %v counts %v, pairwise kernels give %v", rec, got, want)
		}
		for _, v := range valid {
			if got, cf := handle(t, v); cf != nil || got != pairRecord(ss[0], v) {
				t.Fatalf("after %v: valid record %v counts %v (%v), pairwise kernels give %v", rec, v, got, cf, pairRecord(ss[0], v))
			}
		}
	})
}

// stagedPair builds both PEs of a two-way stream over g's edges, shuffled
// by seed: the first half folded and sealed — so long rows carry bitmaps —
// and the second half staged.
func stagedPair(g *graph.Graph, seed int64) [2]*streamState {
	edges := g.Edges()
	rand.New(rand.NewSource(seed)).Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	n := uint64(g.NumVertices())
	pt := part.Uniform(n, 2)
	var ss [2]*streamState
	for r := range ss {
		sb := graph.NewStreamBuilder(pt, r)
		sb.Fold(graph.ScatterEdges(pt, edges[:len(edges)/2])[r], 1)
		sb.Seal(1)
		sb.Stage(graph.ScatterEdges(pt, edges[len(edges)/2:])[r], 1)
		ss[r] = newStreamState(sb, n)
	}
	return ss
}

// shippedRows returns rank 1's touched rows with a new neighbor on rank 0:
// the rows whose records rank 1 ships to rank 0.
func shippedRows(ss [2]*streamState) []int32 {
	var rows []int32
	for _, r := range ss[1].sb.Staged() {
		if dv := ss[1].sb.StagedRowOf(r); len(dv) > 0 && dv[0] < ss[1].sb.First() {
			rows = append(rows, r)
		}
	}
	return rows
}

// BenchmarkStreamDeltaSteadyState measures allocs/op of the delta engine's
// record path on a staged batch: rank 1 assembles every record it would ship
// to rank 0 (send scratch) and rank 0 handles it — record checks, partner
// search, stamping the byte mark, probing it or a long partner's row
// bitmap, un-stamping, and the gallop fallback for skewed partners. Mark,
// bitmaps and scratch are sized before the timed loop, so the steady state
// must report zero allocations (CI allocation gate).
func BenchmarkStreamDeltaSteadyState(b *testing.B) {
	ss := stagedPair(gen.RMAT(gen.DefaultRMAT(10, 42)), 42)
	rows := shippedRows(ss)
	// The replay must reach both probe directions, or the gate above covers
	// only one of them.
	sb0 := ss[0].sb
	viaBitmap, viaMark := 0, 0
	for _, r := range rows {
		dv := ss[1].sb.StagedRowOf(r)
		lv := len(ss[1].sb.Row(r)) + len(dv)
		for _, w := range span(dv, sb0.First(), sb0.Last()) {
			pr := int32(w - sb0.First())
			if ss[0].rowBitmap(pr, lv) != nil {
				viaBitmap++
			} else if !graph.Skewed(lv, len(sb0.Row(pr))+len(sb0.StagedRowOf(pr))) {
				viaMark++
			}
		}
	}
	if viaBitmap == 0 || viaMark == 0 {
		b.Fatalf("%d partners probe a row bitmap, %d the mark; the benchmark must exercise both", viaBitmap, viaMark)
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
