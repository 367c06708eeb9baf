package core

import (
	"time"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/part"
)

// TK2D — the 2D grid-partitioned counter of Tom & Karypis ("A 2-D Parallel
// Triangle Counting Algorithm", 2019) — as an alternative geometry to the
// paper's 1D counters, over the same orientation: every edge points from its
// ≺-smaller to its ≺-larger endpoint (degree, then ID: graph.Less), which
// keeps the out-lists of hubs short. The oriented adjacency matrix U is cut
// into an r×c grid of blocks (cyclic bands per dimension, by original ID; see
// part.Grid2D — any p ≥ 1 factors, square p giving the classic √p×√p grid),
// PE (a,b) owns block U_ab, and the count is the masked SpGEMM trace
// Σ_ab ⟨(U·U)_ab, U_ab⟩: in round k = 0..L−1 (L = lcm(r,c), the
// middle-vertex banding both dimensions agree on) the PE at grid position
// (a, k mod c) broadcasts its round-k stripe along row a, the PE at
// (k mod r, b) broadcasts its TRANSPOSED stripe down column b, and every
// PE (a,b) closes the wedges i ≺ v ≺ j with v ≡ k (mod L) against its own
// edges (i,j) — each triangle once, at the edge between its ≺-smallest and
// ≺-largest corner — with the column-stamped kernel below (tk2dKernel); there
// are no hub bitmaps here. On square grids every stripe is a whole block and
// the schedule (and wire) reduces to the original √p-round one.
//
// The communication trade is the point: a PE ships its ~|E|/p-edge block
// (c−1)+(r−1) block-equivalents — O(|E|/√p) volume to O(√p) neighbors —
// instead of the 1D counters' cut-neighborhood shipping, whose volume
// grows with how many PEs each vertex's neighborhood spans and approaches
// O(|E|) per PE on dense or skewed graphs at large p. No ghost-degree
// exchange (≺ is read off the global CSR as the block is cut), no
// termination detection: the broadcast rounds are self-synchronizing.
//
// With cfg.Overlap the exchange is pipelined: round k+1's row/column
// broadcasts are posted split-phase (comm.Group.IBcast) before round k's
// block-local counting drains, so the per-round critical path is
// max(comm, compute) instead of comm + compute. Receive waits are metered
// into Metrics.IdleNs in both modes, and counting wall spent with the next
// round in flight into Metrics.OverlapNs. Counts are identical to the
// blocking schedule.

// tk2dRound is the double-buffered per-round exchange state: each of the
// two in-flight rounds owns a posting slot — root-side stripe + wire
// scratch and the split-phase handles — and a decode slot. Pipelined runs
// keep slot (k+1)&1 posted while slot k&1 counts; blocking runs drain each
// round before posting the next, so they use slot 0 throughout. A slot's
// buffers are sized in one step when it first fills, from counts the block
// or the frame carries, and later rounds reuse that capacity (growing once
// more only for a larger stripe).
type tk2dRound struct {
	rowOp, colOp         comm.BcastOp
	rowRoot, colRoot     *graph.Block // operand the PE roots itself this round (own block, transpose, or stripe)
	rowStripe, colStripe graph.Block  // root-side stripe scratch (rect grids)
	rowWire, colWire     []uint64     // root-side wire scratch
	aScr, bScr           graph.Block  // receiver-side decode scratch
}

// tk2dWorker is one counting thread's tally and the mark it stamps (one
// byte per row of the round band).
type tk2dWorker struct {
	count uint64
	tris  [][3]graph.Vertex
	mark  *graph.Mark
}

// tk2dKernel is a PE's block-local counting: the transposed own block whose
// columns it walks, per-worker state, and the round in hand (set by round).
type tk2dKernel struct {
	g2      *part.Grid2D
	rank    int
	ownT    *graph.Block
	cfg     Config
	workers []tk2dWorker
	k       int
	A, B    *graph.Block
	columns func(w, lo, hi int) // countColumns, bound once: a round allocates nothing
}

func newTK2DKernel(g2 *part.Grid2D, rank int, ownT *graph.Block, cfg Config) *tk2dKernel {
	kn := &tk2dKernel{g2: g2, rank: rank, ownT: ownT, cfg: cfg, workers: make([]tk2dWorker, cfg.Threads)}
	for w := range kn.workers {
		// Cyclic bands shrink with their index: round band 0 bounds them all.
		kn.workers[w].mark = graph.NewMark(g2.BandSizeRound(0))
	}
	kn.columns = kn.countColumns
	return kn
}

// round closes round k's wedges against the own edges, given acquire's
// operands: the round's out-stripe A of the own rows, in-stripe B of the columns.
func (kn *tk2dKernel) round(k int, A, B *graph.Block) {
	kn.k, kn.A, kn.B = k, A, B
	graph.ParallelFor(kn.cfg.Threads, kn.ownT.NRows(), kn.columns)
}

// countColumns is round's worker body over the own columns [lo, hi): per
// column j, stamp the in-stripe B(j) once and probe it with the out-stripe
// A(i) of every own edge (i,j) — Σ_i d⁺(i)² byte loads, which ≺ keeps small;
// stamping out-lists instead would cost Σ_j d⁻(j)². An out-stripe far longer
// than the stamped list (graph.Skewed) is galloped through instead.
func (kn *tk2dKernel) countColumns(w, lo, hi int) {
	ws := &kn.workers[w]
	a, b := kn.g2.RowCol(kn.rank)
	for relJ := lo; relJ < hi; relJ++ {
		is, bj := kn.ownT.Row(relJ), kn.B.Row(relJ)
		if len(is) == 0 || len(bj) == 0 {
			continue
		}
		ws.mark.Stamp(bj)
		for _, relI := range is {
			ai := kn.A.Row(int(relI))
			switch {
			case kn.cfg.Collect:
				i, j := kn.g2.GIDRow(a, graph.Vertex(relI)), kn.g2.GIDCol(b, graph.Vertex(relJ))
				ws.mark.ForEachCommonList(ai, func(t uint32) {
					ws.count++
					ws.tris = append(ws.tris, CanonTriangle(i, kn.g2.GIDRound(kn.k, graph.Vertex(t)), j))
				})
			case graph.Skewed(len(bj), len(ai)):
				ws.count += graph.CountIntersect(bj, ai)
			default:
				ws.count += ws.mark.CountList(ai)
			}
		}
		ws.mark.Unstamp()
	}
}

// tk2dBody is one PE's TK2D run: build the owned block and its transpose,
// then L broadcast rounds of exchange + block-local counting — blocking, or
// pipelined one round ahead under cfg.Overlap.
func tk2dBody(pe *dist.PE, pl *plan, g *graph.Graph, out *peOutcome) error {
	g2, cfg := pl.g2, pl.cfg
	sw := newStopwatch(pe.C, out)
	rounds := g2.Rounds()
	a, b := g2.RowCol(pe.Rank)

	sw.phase(PhaseBuild)
	own := graph.BuildBlockCSR(g2, pe.Rank, g, cfg.Threads)
	ownT := own.Transpose(cfg.Threads)
	// When a dimension's stride is 1 (L = c resp. L = r — always on square
	// grids) every round's stripe is the whole block, so the wire form is
	// serialized once here instead of per round.
	fastRow, fastCol := rounds == g2.C(), rounds == g2.R()
	var ownWire, ownTWire []uint64
	if fastRow {
		ownWire = own.AppendWire(nil)
	}
	if fastCol {
		ownTWire = ownT.AppendWire(nil)
	}

	sw.phase(PhasePreprocess)
	// Group IDs: rows take 0..r-1, columns r..r+c-1 — unique per run, so
	// interleaved row/column broadcasts never share a tag.
	rowGrp, err := pe.C.NewGroup(uint64(a), g2.RowRanks(a))
	if err != nil {
		return err
	}
	colGrp, err := pe.C.NewGroup(uint64(g2.R()+b), g2.ColRanks(b))
	if err != nil {
		return err
	}
	// Line up the rounds so build skew lands here, not in the first round's
	// exchange wait (control traffic, like the 1D bodies' pre-count barrier).
	pe.C.Barrier()

	pipelined := cfg.Overlap && rounds > 1
	var slots [2]tk2dRound
	slot := func(k int) *tk2dRound {
		if pipelined {
			return &slots[k&1]
		}
		return &slots[0]
	}
	// post ships round k's stripes split-phase from this PE's posting slot.
	// Root frames leave here; receivers only advance the tag sequence.
	post := func(k int) {
		s := slot(k)
		rowRoot, colRoot := g2.RootRow(k), g2.RootCol(k)
		var rowWords, colWords []uint64
		if b == rowRoot {
			if fastRow {
				s.rowRoot, rowWords = own, ownWire
			} else {
				res, stride := g2.StripeRow(k)
				own.StripeInto(&s.rowStripe, k, res, stride, g2.BandSizeRound(k))
				s.rowRoot = &s.rowStripe
				s.rowWire = s.rowStripe.AppendWire(s.rowWire[:0])
				rowWords = s.rowWire
			}
		}
		if a == colRoot {
			if fastCol {
				s.colRoot, colWords = ownT, ownTWire
			} else {
				res, stride := g2.StripeCol(k)
				ownT.StripeInto(&s.colStripe, k, res, stride, g2.BandSizeRound(k))
				s.colRoot = &s.colStripe
				s.colWire = s.colStripe.AppendWire(s.colWire[:0])
				colWords = s.colWire
			}
		}
		// Block wire words are already gap-differenced per adjacency row
		// (graph.Block.AppendWire), so varint on top yields delta-varint
		// compression without a stateful codec re-differencing across record
		// boundaries.
		s.rowOp = rowGrp.IBcast(rowRoot, rowWords, comm.Varint)
		s.colOp = colGrp.IBcast(colRoot, colWords, comm.Varint)
	}
	// receive completes a broadcast into scr. A payload that is not the block
	// this round expects is a transport fault, typed like the queue path's.
	receive := func(op comm.BcastOp, grp *comm.Group, src, band, k, nRows int, scr *graph.Block) (*graph.Block, error) {
		buf := op.Wait()
		err := graph.DecodeBlockInto(buf, band, k, nRows, g2.BandSizeRound(k), scr)
		grp.Recycle(buf)
		if err != nil {
			return nil, &comm.CorruptFrameError{Src: src, Reason: err.Error()}
		}
		return scr, nil
	}
	// acquire completes round k's exchange and returns the counting
	// operands: A = round-k stripe of block (a, k mod c), B = transposed
	// round-k stripe of block (k mod r, b), both with round-space entries. (A
	// root's own handle needs no completion: Wait hands its payload back.)
	acquire := func(k int) (A, B *graph.Block, err error) {
		s := slot(k)
		A, B = s.rowRoot, s.colRoot
		if root := g2.RootRow(k); b != root {
			A, err = receive(s.rowOp, rowGrp, g2.Rank(a, root), a, k, own.NRows(), &s.aScr)
		}
		if root := g2.RootCol(k); a != root && err == nil {
			B, err = receive(s.colOp, colGrp, g2.Rank(root, b), b, k, ownT.NRows(), &s.bScr)
		}
		return A, B, err
	}

	kernel := newTK2DKernel(g2, pe.Rank, ownT, cfg)
	sw.phase(PhaseGlobalExchange)
	if pipelined {
		post(0)
	}
	for k := 0; k < rounds; k++ {
		sw.phase(PhaseGlobalExchange)
		if pipelined {
			// Round k+1 goes on the wire before round k's payload is touched:
			// its frames land in the inbox (or stash) while the counting below
			// runs, so the next acquire's wait collapses to a decode.
			if k+1 < rounds {
				post(k + 1)
			}
		} else {
			post(k)
		}
		A, B, err := acquire(k)
		if err != nil {
			return err
		}
		sw.phase(PhaseLocal)
		t0 := time.Now()
		kernel.round(k, A, B)
		if pipelined && k+1 < rounds {
			// Counting wall with the next round's broadcasts in flight: the
			// compute that hides communication, same meaning as the 1D
			// pipeline's OverlapNs.
			pe.C.M.OverlapNs += time.Since(t0).Nanoseconds()
		}
	}
	sw.stop()
	for i := range kernel.workers {
		out.count += kernel.workers[i].count
		out.triangles = append(out.triangles, kernel.workers[i].tris...)
	}
	return nil
}
