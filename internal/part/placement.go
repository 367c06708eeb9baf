package part

import (
	"fmt"
	"sort"
)

// Hub placement (Arifuzzaman-style surrogate rebalancing, driven by the α+β
// cost model). The 1D partition fixes which PE *owns* a vertex; on skewed
// graphs the owners of a handful of hub rows also receive and intersect
// almost all shipped neighborhoods, so the max-PE global phase is decided
// by where the hubs happen to land. A Placement overlays the partition with
// a per-hub surrogate: the hub's oriented neighborhood ships once to the
// surrogate, which intersects on behalf of every requester, moving the
// hub's receive-side work without changing any count.

// HubLoad describes one nominated hub row for the placement solver. All
// quantities are modeling inputs, not guarantees: Requests counts the
// records the hub attracts (its remote in-edges under the compact-forward
// orientation — each is exactly one shipment), AListLen is both the
// intersection partner size and the one-time ship volume, and Work is the
// nominator's estimate of the hub's total receive-side intersection work in
// words (each attracted record costs its list length plus AListLen, so
// Requests·(mean shipped list + AListLen)). Work is what the solver
// balances; when zero it falls back to Requests·AListLen.
type HubLoad struct {
	GID      uint64
	Owner    int
	Requests uint64
	AListLen uint64
	Work     uint64
}

// Drop is the sentinel surrogate marking a dead endpoint: a row whose
// shipped adjacency list is empty attracts records that cannot produce a
// single triangle (anything intersected with the empty list is empty), so
// senders skip the endpoint instead of shipping anywhere. Dead rows are
// detected by their owner after orientation/contraction and travel in the
// same broadcast as moved hubs.
const Drop = -1

// Placement maps moved hub vertices to their surrogate PEs. It contains
// only hubs whose surrogate differs from their owner — a hub placed "home"
// behaves exactly like a non-hub and is omitted, so Of doubles as the
// "is this vertex redirected?" test. A surrogate of Drop marks a dead
// endpoint senders suppress outright. Immutable after construction;
// lookups are binary searches over the (small, sorted) moved-hub set.
type Placement struct {
	gids      []uint64
	surrogate []int32
}

// NewPlacement builds a Placement from parallel slices (gids strictly
// ascending). Used to rebuild the solver's result after a broadcast.
func NewPlacement(gids []uint64, surrogates []int32) (*Placement, error) {
	if len(gids) != len(surrogates) {
		return nil, fmt.Errorf("part: placement shape mismatch (%d gids, %d surrogates)", len(gids), len(surrogates))
	}
	for i := 1; i < len(gids); i++ {
		if gids[i-1] >= gids[i] {
			return nil, fmt.Errorf("part: placement gids not strictly ascending at %d", i)
		}
	}
	return &Placement{gids: gids, surrogate: surrogates}, nil
}

// Len returns the number of moved hubs.
func (pl *Placement) Len() int {
	if pl == nil {
		return 0
	}
	return len(pl.gids)
}

// At returns the i-th moved hub and its surrogate, ascending by vertex ID.
func (pl *Placement) At(i int) (gid uint64, surrogate int) {
	return pl.gids[i], int(pl.surrogate[i])
}

// Of returns v's surrogate PE, or ok=false when v is not a moved hub (it is
// then served by its owner like every other vertex). The binary search is
// hand-rolled: Of sits on the per-cut-edge send path, and sort.Search's
// closure would cost an allocation per call there.
func (pl *Placement) Of(v uint64) (int, bool) {
	if pl == nil || len(pl.gids) == 0 {
		return 0, false
	}
	lo, hi := 0, len(pl.gids)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if pl.gids[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(pl.gids) && pl.gids[lo] == v {
		return int(pl.surrogate[lo]), true
	}
	return 0, false
}

// ComputePlacement assigns each nominated hub a surrogate PE with a greedy
// LPT (longest processing time first) pass over the modeled per-PE load.
// base is each PE's non-hub receive-side work estimate in words; a hub's
// own work is its Work estimate (Requests·AListLen when unset), and moving
// it off its owner additionally costs the one-time neighborhood shipment,
// priced by the α+β model and converted into work words through gamma, the
// modeled seconds one intersection word costs: (α + β·AListLen)/γ. The
// conversion goes through compute time, not through β — on a fast
// transport (small β) shipping a hub is nearly free, which α/β-style word
// conversion would invert. Hubs are placed heaviest first
// onto the PE minimizing the resulting load (ties to the lowest rank), so
// the result is a pure deterministic function of its inputs — every PE that
// evaluates it (or rank 0 alone, broadcasting) gets the identical overlay.
//
// The returned Placement contains only the hubs whose chosen surrogate
// differs from their owner; nil when nothing moves (then owner-driven
// delivery is already balanced and the counting paths skip all placement
// work).
func ComputePlacement(p int, base []float64, hubs []HubLoad, alpha, beta, gamma float64) *Placement {
	if p <= 1 || len(hubs) == 0 || gamma <= 0 {
		return nil
	}
	load := make([]float64, p)
	copy(load, base)
	order := make([]int, len(hubs))
	for i := range order {
		order[i] = i
	}
	weight := func(h HubLoad) float64 {
		if h.Work > 0 {
			return float64(h.Work)
		}
		return float64(h.Requests) * float64(h.AListLen)
	}
	sort.SliceStable(order, func(a, b int) bool {
		wa, wb := weight(hubs[order[a]]), weight(hubs[order[b]])
		if wa != wb {
			return wa > wb
		}
		return hubs[order[a]].GID < hubs[order[b]].GID
	})
	type moved struct {
		gid uint64
		dst int32
	}
	var moves []moved
	for _, i := range order {
		h := hubs[i]
		w := weight(h)
		if w <= 0 {
			continue // attracts or does no work: leave home
		}
		moveCost := (alpha + beta*float64(h.AListLen)) / gamma
		best, bestLoad := -1, 0.0
		for j := 0; j < p; j++ {
			cand := load[j] + w
			if j != h.Owner {
				cand += moveCost
			}
			if best == -1 || cand < bestLoad {
				best, bestLoad = j, cand
			}
		}
		load[best] = bestLoad
		if best != h.Owner {
			moves = append(moves, moved{gid: h.GID, dst: int32(best)})
		}
	}
	if len(moves) == 0 {
		return nil
	}
	sort.Slice(moves, func(a, b int) bool { return moves[a].gid < moves[b].gid })
	pl := &Placement{
		gids:      make([]uint64, len(moves)),
		surrogate: make([]int32, len(moves)),
	}
	for i, m := range moves {
		pl.gids[i] = m.gid
		pl.surrogate[i] = m.dst
	}
	return pl
}
