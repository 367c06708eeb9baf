package core

import (
	"slices"
	"testing"

	"repro/internal/comm"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/part"
	"repro/internal/testgraph"
)

// TestTK2DEquivalence pins TK2D to the sequential oracle on every fixture
// across the full p × Threads grid — square and rectangular PE counts (p = 2
// is the 1×2, row-fast grid).
func TestTK2DEquivalence(t *testing.T) {
	for _, tg := range testgraph.All {
		for _, p := range []int{1, 2, 4, 6, 8, 9, 16} {
			for _, threads := range []int{1, 4} {
				res, err := Run(AlgoTK2D, tg.Build(), Config{P: p, Threads: threads})
				if err != nil {
					t.Fatalf("%s p=%d threads=%d: %v", tg.Name, p, threads, err)
				}
				if res.Count != tg.Triangles {
					t.Errorf("%s p=%d threads=%d: count %d, want %d",
						tg.Name, p, threads, res.Count, tg.Triangles)
				}
			}
		}
	}
}

// TestTK2DMatches1DCounters cross-validates the two geometries directly:
// identical counts from TK2D, DITRIC, and CETRIC on every fixture.
func TestTK2DMatches1DCounters(t *testing.T) {
	for _, tg := range testgraph.All {
		tk, err := Run(AlgoTK2D, tg.Build(), Config{P: 9, Threads: 2})
		if err != nil {
			t.Fatalf("%s tk2d: %v", tg.Name, err)
		}
		for _, algo := range []Algorithm{AlgoDiTric, AlgoCetric} {
			res, err := Run(algo, tg.Build(), Config{P: 9, Threads: 2})
			if err != nil {
				t.Fatalf("%s %s: %v", tg.Name, algo, err)
			}
			if res.Count != tk.Count {
				t.Errorf("%s: tk2d=%d %s=%d", tg.Name, tk.Count, algo, res.Count)
			}
		}
	}
}

// TestTK2DWireBytesBelowDITRIC pins Tom & Karypis' volume argument: the 2D
// exchange ships O(|E|/√p) words per PE, so on skewed graphs at p ≥ 16 the
// bytes TK2D puts on the wire must undercut what DITRIC ships for the cut
// neighborhoods. Both graphs are dense or skewed enough for the crossover
// to lie below p = 16; traffic is deterministic under the barriered
// schedule with one thread, so the comparison is exact, not a timing.
func TestTK2DWireBytesBelowDITRIC(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"rmat-2^13", gen.RMAT(gen.DefaultRMAT(13, 7))},
		{"rhg-dense-2^12", gen.RHG(gen.RHGConfig{N: 1 << 12, AvgDegree: 128, Gamma: 2.2, Seed: 42})},
	}
	for _, tc := range graphs {
		for _, p := range []int{16, 25} {
			cfg := Config{P: p, Threads: 1}
			tk, err := Run(AlgoTK2D, tc.g, cfg)
			if err != nil {
				t.Fatalf("%s p=%d tk2d: %v", tc.name, p, err)
			}
			di, err := Run(AlgoDiTric, tc.g, cfg)
			if err != nil {
				t.Fatalf("%s p=%d ditric: %v", tc.name, p, err)
			}
			if tk.Count != di.Count {
				t.Fatalf("%s p=%d: tk2d counts %d, ditric %d", tc.name, p, tk.Count, di.Count)
			}
			tkBytes := comm.AggregateOf(tk.PerPE).TotalEncodedBytes
			diBytes := comm.AggregateOf(di.PerPE).TotalEncodedBytes
			if tkBytes >= diBytes {
				t.Errorf("%s p=%d: tk2d wire bytes %d not below ditric %d", tc.name, p, tkBytes, diBytes)
			}
			t.Logf("%s p=%d: tk2d %d vs ditric %d wire bytes (×%.2f)",
				tc.name, p, tkBytes, diBytes, float64(tkBytes)/float64(diBytes))
		}
	}
}

// TestTK2DCollect pins what the column-stamped kernel enumerates to the
// sequential oracle: the count, the collected triangle set (SeqEnumerate)
// and the per-vertex triangle counts Δ every LCC is computed from
// (SeqDeltas; TK2D itself rejects cfg.LCC, so Δ is tallied from the set) —
// on a square and a rectangular grid, one worker and several. Beside the clique chain the fixtures are K12, where every
// degree ties and ≺ is the ID tie-break alone, and rmat, the most skewed of
// the catalog (max degree 9.8× the mean), where ≺ and ID order differ most.
func TestTK2DCollect(t *testing.T) {
	for _, name := range []string{"cliques", "K12", "rmat"} {
		tg, ok := testgraph.ByName(name)
		if !ok {
			t.Fatalf("%s fixture missing", name)
		}
		fix := tg.Build()
		var exp [][3]uint64
		SeqEnumerate(fix, func(v, u, w uint64) { exp = append(exp, CanonTriangle(v, u, w)) })
		sortTriangles(exp)
		_, wantDeltas := SeqDeltas(fix)
		for _, p := range []int{4, 6} {
			for _, threads := range []int{1, 3} {
				res, err := Run(AlgoTK2D, fix, Config{P: p, Collect: true, Threads: threads})
				if err != nil {
					t.Fatalf("%s p=%d threads=%d: %v", name, p, threads, err)
				}
				if res.Count != tg.Triangles {
					t.Errorf("%s p=%d threads=%d: count %d, want %d", name, p, threads, res.Count, tg.Triangles)
				}
				got := slices.Clone(res.Triangles)
				sortTriangles(got)
				if !slices.Equal(got, exp) {
					t.Fatalf("%s p=%d threads=%d: triangle sets differ: got %d, want %d",
						name, p, threads, len(got), len(exp))
				}
				deltas := make([]uint64, fix.NumVertices())
				for _, tri := range got {
					for _, v := range tri {
						deltas[v]++
					}
				}
				if !slices.Equal(deltas, wantDeltas) {
					t.Fatalf("%s p=%d threads=%d: per-vertex triangle counts differ from SeqDeltas", name, p, threads)
				}
			}
		}
	}
}

func sortTriangles(tris [][3]uint64) {
	slices.SortFunc(tris, func(a, b [3]uint64) int { return slices.Compare(a[:], b[:]) })
}

// tk2dLocalOperands cuts, out of all ranks' blocks and transposes, the two
// operands round k's exchange hands PE rank — no communicator involved.
func tk2dLocalOperands(g2 *part.Grid2D, blocks, blocksT []*graph.Block, rank, k int) (A, B *graph.Block) {
	a, b := g2.RowCol(rank)
	A, B = new(graph.Block), new(graph.Block)
	res, stride := g2.StripeRow(k)
	blocks[g2.Rank(a, g2.RootRow(k))].StripeInto(A, k, res, stride, g2.BandSizeRound(k))
	res, stride = g2.StripeCol(k)
	blocksT[g2.Rank(g2.RootCol(k), b)].StripeInto(B, k, res, stride, g2.BandSizeRound(k))
	return A, B
}

func tk2dLocalBlocks(g2 *part.Grid2D, g *graph.Graph) (blocks, blocksT []*graph.Block) {
	for rank := 0; rank < g2.P(); rank++ {
		own := graph.BuildBlockCSR(g2, rank, g, 1)
		blocks, blocksT = append(blocks, own), append(blocksT, own.Transpose(1))
	}
	return blocks, blocksT
}

// TestTK2DKernelLeavesMarksClear is the Mark guard cell of the 2D
// kernel: driven round by round without a communicator, every worker's
// mark is all-zero and holds no list after every round — a column that left
// entries behind would be counted into the next one — and the rounds of all
// PEs add up to the oracle's count. More than 1024 own columns per PE put
// several workers (each with its own mark) on a round.
func TestTK2DKernelLeavesMarksClear(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(12, 5))
	want := SeqCount(g)
	for _, p := range []int{1, 4, 6} {
		g2, err := part.NewGrid2D(uint64(g.NumVertices()), p)
		if err != nil {
			t.Fatal(err)
		}
		blocks, blocksT := tk2dLocalBlocks(g2, g)
		var total uint64
		for rank := 0; rank < p; rank++ {
			kn := newTK2DKernel(g2, rank, blocksT[rank], Config{P: p, Threads: 3})
			for k := 0; k < g2.Rounds(); k++ {
				A, B := tk2dLocalOperands(g2, blocks, blocksT, rank, k)
				kn.round(k, A, B)
				for w := range kn.workers {
					mark := kn.workers[w].mark
					if !mark.IsClear() {
						t.Fatalf("p=%d rank %d round %d: worker %d's mark holds entries after the round", p, rank, k, w)
					}
					mark.Stamp([]uint32{}) // panics if a list is still stamped
					mark.Unstamp()
				}
			}
			for w := range kn.workers {
				total += kn.workers[w].count
			}
		}
		if total != want {
			t.Errorf("p=%d: kernel rounds count %d, want %d", p, total, want)
		}
	}
}

// BenchmarkTK2DRoundKernelSteadyState measures one counting round of the
// column-stamped kernel on a block of an RMAT graph (2×2 grid, PE 0, round
// 0). The marks are allocated with the kernel and the round's worker body
// is bound once, so a warmed round must report zero allocations (CI
// allocation gate).
func BenchmarkTK2DRoundKernelSteadyState(b *testing.B) {
	g := gen.RMAT(gen.DefaultRMAT(12, 42))
	g2, err := part.NewGrid2D(uint64(g.NumVertices()), 4)
	if err != nil {
		b.Fatal(err)
	}
	blocks, blocksT := tk2dLocalBlocks(g2, g)
	A, B := tk2dLocalOperands(g2, blocks, blocksT, 0, 0)
	kn := newTK2DKernel(g2, 0, blocksT[0], Config{P: 4, Threads: 1})
	kn.round(0, A, B)
	perRound := kn.workers[0].count
	if perRound == 0 {
		b.Fatal("round closed no wedge")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kn.round(0, A, B)
	}
	b.StopTimer()
	if got := kn.workers[0].count; got != perRound*uint64(b.N+1) {
		b.Fatalf("rounds disagree: %d after %d rounds of %d", got, b.N+1, perRound)
	}
}

// TestTK2DConfigValidation pins what is accepted and what is rejected:
// every P ≥ 1 now factors into a rectangular grid (non-square counts
// included), while LCC and 1D partition overrides error.
func TestTK2DConfigValidation(t *testing.T) {
	g := gen.Complete(10)
	const wantTris = 120 // C(10,3)
	for _, p := range []int{2, 3, 5, 8, 12} {
		res, err := Run(AlgoTK2D, g, Config{P: p})
		if err != nil {
			t.Errorf("p=%d: rectangular grid rejected: %v", p, err)
			continue
		}
		if res.Count != wantTris {
			t.Errorf("p=%d: count %d, want %d", p, res.Count, wantTris)
		}
	}
	if _, err := Run(AlgoTK2D, g, Config{P: 4, LCC: true}); err == nil {
		t.Error("want error for LCC under tk2d")
	}
	if _, err := Run(AlgoTK2D, g, Config{P: 4, Partition: part.Uniform(10, 4)}); err == nil {
		t.Error("want error for 1D partition override under tk2d")
	}
}

// TestTK2DExchangeFoldsIntoGlobal pins the stopwatch attribution the 2D
// body relies on: the collective exchange reports under global/exchange AND
// folds into the parent global phase — wall time and communication both —
// so cmd/tricount -v shows 1D and 2D runs under the same top-level keys.
func TestTK2DExchangeFoldsIntoGlobal(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(9, 41))
	res, err := Run(AlgoTK2D, g, Config{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	sub, ok := res.Phases[PhaseGlobalExchange]
	if !ok || sub <= 0 {
		t.Fatalf("global/exchange phase missing or empty: %v", res.Phases)
	}
	if parent := res.Phases[PhaseGlobal]; parent < sub {
		t.Fatalf("global (%v) does not cover its exchange sub-phase (%v)", parent, sub)
	}
	if res.PhaseComm[PhaseGlobalExchange].TotalEncodedBytes == 0 {
		t.Fatal("exchange sub-phase carries no traffic")
	}
	if res.PhaseComm[PhaseGlobal].TotalEncodedBytes < res.PhaseComm[PhaseGlobalExchange].TotalEncodedBytes {
		t.Fatal("exchange traffic did not fold into the global phase")
	}
	// The counting side of a round must stay communication-free.
	if res.PhaseComm[PhaseLocal].TotalPayload != 0 {
		t.Fatalf("tk2d local counting shipped %d payload words",
			res.PhaseComm[PhaseLocal].TotalPayload)
	}
}

// TestTK2DSendsNoControlFrames: the broadcast rounds synchronize
// themselves, so a TK2D run sends data frames only — no barrier or other
// control traffic — and meters no overlap, on a square and a rectangular
// grid. Overlap is set to show that TK2D ignores it.
func TestTK2DSendsNoControlFrames(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 7))
	want := SeqCount(g)
	for _, p := range []int{4, 6} {
		res, err := Run(AlgoTK2D, g, Config{P: p, Overlap: true})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if res.Count != want {
			t.Errorf("p=%d: count %d, want %d", p, res.Count, want)
		}
		if res.Agg.ControlSent != 0 {
			t.Errorf("p=%d: tk2d sent %d control frames", p, res.Agg.ControlSent)
		}
		if res.Agg.TotalOverlapNs != 0 {
			t.Errorf("p=%d: tk2d metered %d ns of overlap", p, res.Agg.TotalOverlapNs)
		}
	}
}

// TestTK2DSinglePEHasNoCommunication: the 1×1 grid runs entirely locally.
func TestTK2DSinglePEHasNoCommunication(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(8, 97))
	res, err := Run(AlgoTK2D, g, Config{P: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Agg.TotalPayload != 0 || res.Agg.TotalFrames != 0 {
		t.Fatalf("tk2d at p=1 communicated: %+v", res.Agg)
	}
	if res.Count == 0 {
		t.Fatal("no triangles counted")
	}
}
