package core

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/graph"
)

// heavyOutDegree is the out-degree d⁺ = |A(v)| from which a row is heavy.
const heavyOutDegree = 32

// wedgeRule decides who probes an oriented edge {a, b}, a ≺ b. The edge's
// closing vertices are A(a) ∩ A(b): one endpoint's list is stamped (or
// shipped to the other's PE and stamped there), and the other endpoint's
// list probes it, one byte load per entry. The rule:
//
//   - if neither endpoint is heavy, b probes;
//   - otherwise the endpoint with the smaller d⁺ probes, ties going to b,
//     and an edge with an endpoint of d⁺ = 0 is skipped (it closes nothing).
//
// This is the heavy/light split of Kolountzakis et al. applied to the
// stamped kernel: a long list is stamped once for its short partners instead
// of probing, word by word, every short list shipped to it. Seen from the
// stamping row x, the partners — the endpoints that probe A(x) — are
//
//   - light x: the y ∈ A(x) with d⁺(y) < heavyOutDegree;
//   - heavy x: the y ∈ N(x) with 0 < d⁺(y) < d⁺(x), and the y ∈ A(x) with
//     d⁺(y) = d⁺(x).
//
// Neither set needs a ≺ test or a degree lookup, only d⁺. A receiver derives
// the set from a record [x, A(x)] alone, because |A(x)| = d⁺(x) and x's ghost
// row holds N(x) ∩ V_i (recvNeigh).
type wedgeRule struct {
	dplus []int32 // d⁺ per row: the locals' from the orientation, the ghosts' from their owners
	heavy int32   // heavyOutDegree; math.MaxInt32 makes every row light
}

// newWedgeRule returns the rule over lg's rows, with the locals' d⁺ read from
// outDegree. The ghosts' d⁺ stay 0 until exchangeOutDegrees fills them in.
func newWedgeRule(lg *graph.LocalGraph, outDegree func(row int32) int) wedgeRule {
	dplus := make([]int32, lg.Rows())
	for r := 0; r < lg.NLocal(); r++ {
		dplus[r] = int32(outDegree(int32(r)))
	}
	return wedgeRule{dplus: dplus, heavy: heavyOutDegree}
}

// allLight is the rule under which b probes every edge: TriC's schedule,
// whose ID orientation leaves hub rows their whole neighbourhoods and which
// exchanges no degrees.
func allLight(lg *graph.LocalGraph) wedgeRule {
	return wedgeRule{dplus: make([]int32, lg.Rows()), heavy: math.MaxInt32}
}

// heavyRow reports whether a row with out-degree d stamps as a heavy row.
func (w *wedgeRule) heavyRow(d int) bool { return d >= int(w.heavy) }

// probesHeavy reports whether the neighbour y of the heavy row x probes
// A(x), with dy = d⁺(y), dx = d⁺(x) and ax = A(x) (IDs, ascending): when
// 0 < dy < dx, or on a tie when y ∈ A(x) — x ≺ y, and ties go to the
// ≺-larger endpoint. It runs once per neighbour of every heavy row, so it
// inlines, and only a tie pays for the search (tieInA).
func probesHeavy(dy, dx int, lg *graph.LocalGraph, y uint32, ax []graph.Vertex) bool {
	return uint(dy-1) < uint(dx-1) || dy == dx && tieInA(lg, y, ax)
}

// tieInA reports whether row y's vertex is in ax, ascending. Kept out of
// line, so that probesHeavy inlines.
//
//go:noinline
func tieInA(lg *graph.LocalGraph, y uint32, ax []graph.Vertex) bool {
	_, in := slices.BinarySearch(ax, lg.GID(int32(y)))
	return in
}

// exchangeOutDegrees answers the requests the degree exchange received with
// the d⁺ of the requested locals, one chOutDeg record per requester, and
// fills the ghost rows of dplus from the owners' answers
// (applyOutDegreeReply). Its Drain returns on no PE before every PE has
// entered it, and no PE dispatches a record a peer sent after its own Drain
// returned: the counting engines call it, with their handlers installed,
// where a barrier would stand.
func (gr ghostRequests) exchangeOutDegrees(pe *dist.PE, lg *graph.LocalGraph, dplus []int32) {
	pe.Q.Handle(chOutDeg, func(owner int, ds []uint64) {
		applyOutDegreeReply(lg, owner, gr.sent[owner], ds, dplus)
	})
	var rep []uint64
	for src, gids := range gr.got {
		if len(gids) == 0 {
			continue
		}
		rep = rep[:0]
		for _, gid := range gids {
			rep = append(rep, uint64(dplus[gid-lg.First])) // a local: the degree exchange checked it
		}
		pe.Q.Send(chOutDeg, src, rep)
	}
	pe.Q.Drain()
}

// applyOutDegreeReply records in dplus the d⁺ owner sent back for the ghosts
// this PE requested from it, gids[k] getting ds[k]. A reply of any other
// length, or with a d⁺ above the ghost's degree, is a corrupt frame.
func applyOutDegreeReply(lg *graph.LocalGraph, owner int, gids, ds []uint64, dplus []int32) {
	if len(ds) != len(gids) {
		panic(&comm.CorruptFrameError{Src: owner, Reason: fmt.Sprintf(
			"out-degree reply holds %d values for %d requested ghosts", len(ds), len(gids))})
	}
	for k, d := range ds {
		row, _ := lg.GhostRow(gids[k])
		if d > uint64(lg.Degree(row)) {
			panic(&comm.CorruptFrameError{Src: owner, Reason: fmt.Sprintf(
				"out-degree reply gives ghost %d d⁺ = %d above its degree %d", gids[k], d, lg.Degree(row))})
		}
		dplus[row] = int32(d)
	}
}
