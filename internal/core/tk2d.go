package core

import (
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
// Each round is one blocking broadcast per group; a receive wait is metered
// into Metrics.IdleNs. Config.Overlap does not apply: posting round k+1's
// broadcasts before counting round k measured no faster.

// tk2dStream is one direction of a PE's round exchange — along its row
// group (out-stripes of the own rows) or down its column group (transposed
// in-stripes of the own columns) — with the scratch every round reuses. A
// buffer is sized in one step when it first fills, from counts the block or
// the frame carries; later rounds reuse that capacity (growing once more
// only for a larger stripe).
type tk2dStream struct {
	g2      *part.Grid2D
	grp     *comm.Group
	members []int                         // grp's ranks: members[i] is member i's global rank
	own     *graph.Block                  // own block (row) or its transpose (column)
	whole   []uint64                      // own's wire form when every round's stripe is all of own, else nil
	band    int                           // this PE's band along the stream: a (row), b (column)
	root    func(k int) int               // member index of round k's root: g2.RootRow or g2.RootCol
	cut     func(k int) (res, stride int) // round k's stripe: g2.StripeRow or g2.StripeCol

	stripe  graph.Block  // root-side stripe scratch (rect grids)
	wire    []uint64     // root-side wire scratch
	dec     graph.Block  // receiver-side decode scratch
	operand *graph.Block // round k's operand once exchange returns: the own stripe or dec
}

// exchange runs the stream's round-k broadcast. The root ships its round-k
// stripe and counts against it; every other member decodes the root's. A
// payload that is not the block this round expects is a transport fault,
// typed like the queue path's.
func (s *tk2dStream) exchange(k int) error {
	// Block wire words are already gap-differenced per adjacency row
	// (graph.Block.AppendWire), so varint on top yields delta-varint
	// compression without a stateful codec re-differencing across record
	// boundaries.
	root := s.root(k)
	if s.grp.Index() == root {
		if s.whole != nil {
			s.grp.Bcast(root, s.whole, comm.Varint)
			s.operand = s.own
			return nil
		}
		res, stride := s.cut(k)
		s.own.StripeInto(&s.stripe, k, res, stride, s.g2.BandSizeRound(k))
		s.wire = s.stripe.AppendWire(s.wire[:0])
		s.grp.Bcast(root, s.wire, comm.Varint)
		s.operand = &s.stripe
		return nil
	}
	buf := s.grp.Bcast(root, nil, comm.Varint)
	err := graph.DecodeBlockInto(buf, s.band, k, s.own.NRows(), s.g2.BandSizeRound(k), &s.dec)
	s.grp.Recycle(buf)
	if err != nil {
		return &comm.CorruptFrameError{Src: s.members[root], Reason: err.Error()}
	}
	s.operand = &s.dec
	return nil
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

// round closes round k's wedges against the own edges: A is the round's
// out-stripe of the own rows, B its in-stripe of the own columns.
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
// then L rounds, each a row and a column broadcast and block-local counting.
func tk2dBody(pe *dist.PE, pl *plan, g *graph.Graph, out *peOutcome) error {
	g2, cfg := pl.g2, pl.cfg
	sw := newStopwatch(pe.C, out)
	rounds := g2.Rounds()
	a, b := g2.RowCol(pe.Rank)

	sw.phase(PhaseBuild)
	own := graph.BuildBlockCSR(g2, pe.Rank, g, cfg.Threads)
	ownT := own.Transpose(cfg.Threads)
	row := tk2dStream{g2: g2, members: g2.RowRanks(a), own: own, band: a, root: g2.RootRow, cut: g2.StripeRow}
	col := tk2dStream{g2: g2, members: g2.ColRanks(b), own: ownT, band: b, root: g2.RootCol, cut: g2.StripeCol}
	// When a dimension's stride is 1 (L = c resp. L = r — always on square
	// grids) every round's stripe is the whole block, so the wire form is
	// serialized once here instead of per round.
	if rounds == g2.C() {
		row.whole = own.AppendWire(nil)
	}
	if rounds == g2.R() {
		col.whole = ownT.AppendWire(nil)
	}

	sw.phase(PhasePreprocess)
	// Group IDs: rows take 0..r-1, columns r..r+c-1 — unique per run, so
	// interleaved row/column broadcasts never share a tag.
	var err error
	if row.grp, err = pe.C.NewGroup(uint64(a), row.members); err != nil {
		return err
	}
	if col.grp, err = pe.C.NewGroup(uint64(g2.R()+b), col.members); err != nil {
		return err
	}

	kernel := newTK2DKernel(g2, pe.Rank, ownT, cfg)
	for k := 0; k < rounds; k++ {
		sw.phase(PhaseGlobalExchange)
		// A broadcast this PE roots never waits, so it runs first: the
		// column root sends its stripe before it waits on its row's, and no
		// column receiver waits behind that row exchange.
		first, second := &row, &col
		if a == g2.RootCol(k) {
			first, second = &col, &row
		}
		if err := first.exchange(k); err != nil {
			return err
		}
		if err := second.exchange(k); err != nil {
			return err
		}
		// A = round-k stripe of block (a, k mod c), B = transposed round-k
		// stripe of block (k mod r, b), both with round-space entries.
		sw.phase(PhaseLocal)
		kernel.round(k, row.operand, col.operand)
	}
	sw.stop()
	for i := range kernel.workers {
		out.count += kernel.workers[i].count
		out.triangles = append(out.triangles, kernel.workers[i].tris...)
	}
	return nil
}
