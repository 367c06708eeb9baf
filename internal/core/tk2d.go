package core

import (
	"time"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/graph"
)

// TK2D — the 2D grid-partitioned counter of Tom & Karypis ("A 2-D Parallel
// Triangle Counting Algorithm", 2019) — as an alternative geometry to the
// paper's 1D counters. The ID-oriented upper-triangular adjacency matrix U
// is cut into an r×c grid of blocks (cyclic bands per dimension; see
// part.Grid2D — any p ≥ 1 factors, square p giving the classic √p×√p
// grid), PE (a,b) owns block U_ab, and the count is the masked SpGEMM
// trace Σ_ab ⟨(U·U)_ab, U_ab⟩: in round k = 0..L−1 (L = lcm(r,c), the
// middle-vertex banding both dimensions agree on) the PE at grid position
// (a, k mod c) broadcasts its round-k stripe along row a, the PE at
// (k mod r, b) broadcasts its TRANSPOSED stripe down column b, and every
// PE (a,b) closes the wedges i→v→j with v ≡ k (mod L) against its own
// edges (i,j) using the same adaptive merge/gallop/hub-bitmap kernels as
// the 1D counters. On square grids every stripe is a whole block and the
// schedule (and wire) reduces to the original √p-round one.
//
// The communication trade is the point: a PE ships its ~|E|/p-edge block
// (c−1)+(r−1) block-equivalents — O(|E|/√p) volume to O(√p) neighbors —
// instead of the 1D counters' cut-neighborhood shipping, whose volume
// grows with how many PEs each vertex's neighborhood spans and approaches
// O(|E|) per PE on dense or skewed graphs at large p. No ghost-degree
// exchange, no termination detection: the broadcast rounds are
// self-synchronizing.
//
// With cfg.Overlap the exchange is pipelined: round k+1's row/column
// broadcasts are posted split-phase (comm.Group.IBcast) before round k's
// block-local counting drains, so the per-round critical path is
// max(comm, compute) instead of comm + compute. Receive waits are metered
// into Metrics.IdleNs in both modes, and counting wall spent with the next
// round in flight into Metrics.OverlapNs. Counts are identical to the
// blocking schedule.

// groupCodec maps the run's codec policy to the block-broadcast codec. Raw
// stays raw; every other policy uses varint: block wire words are already
// gap-differenced per adjacency row (graph.Block.AppendWire), so varint on
// top yields delta-varint compression without a stateful codec
// re-differencing across record boundaries.
func groupCodec(policy string) comm.Codec {
	if policy == CodecRaw {
		return comm.Raw
	}
	return comm.Varint
}

// tk2dRound is the double-buffered per-round exchange state: each of the
// two in-flight rounds owns a posting slot — root-side stripe + wire
// scratch and the split-phase handles — and a decode slot. Blocking runs
// only ever populate slot k&1 right before draining it; pipelined runs
// keep slot (k+1)&1 posted while slot k&1 counts.
type tk2dRound struct {
	rowOp, colOp         comm.BcastOp
	rowRoot, colRoot     *graph.Block // operand the PE roots itself this round (own block, transpose, or stripe)
	rowStripe, colStripe graph.Block  // root-side stripe scratch (rect grids)
	rowWire, colWire     []uint64     // root-side wire scratch
	aScr, bScr           graph.Block  // receiver-side decode scratch
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
	codec := groupCodec(cfg.Codec)
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

	var slots [2]tk2dRound
	// post ships round k's stripes split-phase from this PE's posting slot.
	// Root frames leave here; receivers only advance the tag sequence.
	post := func(k int) {
		s := &slots[k&1]
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
		s.rowOp = rowGrp.IBcast(rowRoot, rowWords, codec)
		s.colOp = colGrp.IBcast(colRoot, colWords, codec)
	}
	// acquire completes round k's exchange and returns the counting
	// operands: A = round-k stripe of block (a, k mod c), B = transposed
	// round-k stripe of block (k mod r, b), both with round-space entries.
	acquire := func(k int) (*graph.Block, *graph.Block, error) {
		s := &slots[k&1]
		A, B := s.rowRoot, s.colRoot
		if b != g2.RootRow(k) {
			buf := s.rowOp.Wait()
			err := graph.DecodeBlockInto(buf, a, k, own.NRows(), g2.BandSizeRound(k), &s.aScr)
			rowGrp.Recycle(buf)
			if err != nil {
				return nil, nil, err
			}
			A = &s.aScr
		} else {
			s.rowOp.Wait()
		}
		if a != g2.RootCol(k) {
			buf := s.colOp.Wait()
			err := graph.DecodeBlockInto(buf, b, k, ownT.NRows(), g2.BandSizeRound(k), &s.bScr)
			colGrp.Recycle(buf)
			if err != nil {
				return nil, nil, err
			}
			B = &s.bScr
		} else {
			s.colOp.Wait()
		}
		return A, B, nil
	}

	hubMin := cfg.hubMinDegree()
	type tk2dWorker struct {
		count uint64
		tris  [][3]graph.Vertex
	}
	workers := make([]tk2dWorker, cfg.Threads)
	count := func(k int, A, B *graph.Block) {
		graph.ParallelFor(cfg.Threads, own.NRows(), func(w, lo, hi int) {
			ws := &workers[w]
			for rel := lo; rel < hi; rel++ {
				js := own.Row(rel)
				if len(js) == 0 {
					continue
				}
				ai := A.Row(rel)
				if len(ai) == 0 {
					continue
				}
				ha := A.Hub(rel)
				for _, relJ := range js {
					bj := B.Row(int(relJ))
					if len(bj) == 0 {
						continue
					}
					if cfg.Collect {
						i := g2.GIDRow(a, uint64(rel))
						j := g2.GIDCol(b, relJ)
						graph.ForEachCommon(ai, bj, func(v graph.Vertex) {
							ws.count++
							ws.tris = append(ws.tris, [3]graph.Vertex{i, g2.GIDRound(k, v), j})
						})
						continue
					}
					switch {
					case ha != nil:
						if hb := B.Hub(int(relJ)); hb != nil {
							ws.count += ha.CountAnd(hb)
						} else {
							ws.count += ha.CountList(bj)
						}
					default:
						if hb := B.Hub(int(relJ)); hb != nil {
							ws.count += hb.CountList(ai)
						} else {
							ws.count += graph.CountIntersect(ai, bj)
						}
					}
				}
			}
		})
	}

	pipelined := cfg.Overlap && rounds > 1
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
		A.BuildHubs(hubMin, cfg.Threads)
		B.BuildHubs(hubMin, cfg.Threads)

		sw.phase(PhaseLocal)
		t0 := time.Now()
		count(k, A, B)
		if pipelined && k+1 < rounds {
			// Counting wall with the next round's broadcasts in flight: the
			// compute that hides communication, same meaning as the 1D
			// pipeline's OverlapNs.
			pe.C.M.OverlapNs += time.Since(t0).Nanoseconds()
		}
	}
	sw.stop()
	for i := range workers {
		out.count += workers[i].count
		out.triangles = append(out.triangles, workers[i].tris...)
	}
	out.partialCount = out.count
	out.finished = true
	return nil
}
