package core

import (
	"math"
	"sort"
	"sync"

	"repro/internal/comm"
	"repro/internal/costmodel"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/part"
)

// Cost-model-driven hub placement (Arifuzzaman-style surrogate
// rebalancing). The 1D partition pins every vertex's receive-side
// intersection work to its owner; on skewed graphs a handful of hub rows
// concentrate most shipped neighborhoods on whichever PEs own them. The
// placement overlay moves exactly that work: after the ghost-degree
// exchange each PE nominates its heaviest rows, rank 0 solves a greedy LPT
// over the modeled per-PE load (part.ComputePlacement, priced by the α+β
// profile — statically configured or calibrated live from measured frame
// latency), and every moved hub's neighborhood ships once to its surrogate,
// which intersects on behalf of all requesters. Each oriented cut edge is
// still resolved exactly once cluster-wide (at the effective destination
// the sender computes), so counts are provably identical to the
// owner-driven path — the equivalence suite in placement_test.go pins this
// across every fixture × algorithm × P × overlap combination.

// Placement policy names accepted by Config.Placement / Options.Placement.
const (
	PlacementOff    = "off"    // owner-driven delivery (the default)
	PlacementStatic = "static" // cost-driven, α/β from the static profile table
	PlacementAuto   = "auto"   // cost-driven, α/β calibrated from measured latency when available
)

// placementMaxHubsPerPE caps each PE's nominations so the placement
// exchange and the LPT solve stay O(p·64) regardless of graph size; the
// tail past the cap folds into the PE's base load.
const placementMaxHubsPerPE = 64

// placementMaxDeadPerPE caps the dead-row announcements (empty shipped
// list, nonzero remote in-degree) the same way; rows past the cap just
// keep receiving useless records, exactly as with placement off.
const placementMaxDeadPerPE = 256

func validPlacement(name string) bool {
	switch name {
	case "", PlacementOff, PlacementStatic, PlacementAuto:
		return true
	}
	return false
}

// placementEnabled reports whether this run computes a placement overlay.
// The no-surrogate ablation ships per-edge records a surrogate could not
// dedup-intersect, so it forces placement off.
func (c Config) placementEnabled() bool {
	return (c.Placement == PlacementStatic || c.Placement == PlacementAuto) && !c.NoSurrogate
}

// placementMinDegree is the nomination threshold: the hub-bitmap degree
// knob when it is active, the engine default otherwise (placement stays
// usable when the bitmaps are ablated away).
func (c Config) placementMinDegree() int {
	if d := c.hubMinDegree(); d > 0 {
		return d
	}
	return graph.DefaultHubMinDegree
}

// placementProfile resolves the α/β the LPT solver prices hub moves with:
// PlacementStatic uses the configured profile table (Cloud when none is
// set), PlacementAuto — or -profile=measured — prefers a live fit of the
// frames metered so far (the degree exchange and everything before it),
// falling back to the static table until calibration has enough samples.
// Only rank 0's view matters: it solves alone and broadcasts the result.
func placementProfile(cfg Config, m comm.Metrics) costmodel.Profile {
	if placementTestProfile != nil {
		return *placementTestProfile
	}
	static := costmodel.Cloud
	if cfg.Profile != "" && cfg.Profile != costmodel.MeasuredName {
		if p, err := costmodel.ByName(cfg.Profile); err == nil {
			static = p
		}
	}
	if cfg.Placement == PlacementAuto || cfg.Profile == costmodel.MeasuredName {
		if p, ok := costmodel.Calibrate(m); ok {
			return p
		}
	}
	return static
}

// placementTestProfile, when non-nil, overrides the α/β the LPT solver
// prices hub moves with. The equivalence suite pins it to a near-free
// profile so the tiny test fixtures actually move hubs (under honest cloud
// pricing a few-hundred-word hub never pays its 50µs α and the placed code
// paths would go untested). Production paths never set it.
var placementTestProfile *costmodel.Profile

// placeRun is one PE's view of the placement overlay during a counting
// run: the global moved-hub map, this PE's own redirected rows (their
// incoming intersections are skipped here — the surrogate runs them), and
// the stored neighborhoods of foreign hubs placed here.
type placeRun struct {
	pl *part.Placement

	// Local hubs redirected away from this PE, ascending by row.
	redirRows []int32
	redirGIDs []uint64
	redirDst  []int32

	// Stored-hub table: staged by the chHubShip handler, finalized (sorted
	// by hub ID, flattened) on first use after the hub-ship drain. hubOwner
	// records each hub's owning rank (the ship's source): a counting record
	// from that same rank must NOT be intersected against the hub here —
	// sender and hub were co-located, so the sender already resolved the
	// pair as a local-local wedge.
	stagedGID   []uint64
	stagedOwner []int32
	stagedAdj   [][]uint64
	once        sync.Once
	hubGID      []uint64
	hubOwner    []int32
	hubOff      []int
	hubAdj      []uint64
}

// computePlacement runs the placement exchange: nominate local hub rows,
// gather the nominations at rank 0, solve the greedy LPT there, broadcast
// the assignment, and build this PE's view. src is the structure whose
// A-lists will ship and be intersected against — the full oriented lists
// for DITRIC, the contracted cut lists for CETRIC — so the nomination
// weights model exactly the intersections the global phase will run.
// Returns nil when placement is disabled or nothing moves; the broadcast
// makes the nil-ness (and everything else) identical on every PE.
func computePlacement(pe *dist.PE, lg *graph.LocalGraph, src *graph.LocalOriented, cfg Config) *placeRun {
	if !cfg.placementEnabled() || pe.P <= 1 {
		return nil
	}
	minDeg := cfg.placementMinDegree()
	type cand struct {
		row       int32
		req, alen uint64
		w         float64
	}
	var cands []cand
	var base float64
	nLoc := int32(lg.NLocal())
	// Mean shipped-list length over this PE's shipping rows (|A(v)| ≥ 2 —
	// singleton lists cannot close a wedge and are never sent). A received
	// record costs its list length plus the endpoint's A-list in the recvWork
	// accounting, so the list term dominates for hub rows, whose own oriented
	// lists are short by construction. The local mean stands in for the
	// remote senders' — under a uniform 1D partition the two agree in
	// expectation.
	var sumA, nA float64
	for r := int32(0); r < nLoc; r++ {
		if a := src.OutDegree(r); a >= 2 {
			sumA += float64(a)
			nA++
		}
	}
	var listBar float64
	if nA > 0 {
		listBar = sumA / nA
	}
	type deadRow struct {
		gid uint64
		req uint64
	}
	var dead []deadRow
	for r := int32(0); r < nLoc; r++ {
		alen := uint64(src.OutDegree(r))
		deg := lg.Degree(r)
		v := lg.GID(r)
		// Count this row's remote in-edges under the degree orientation:
		// each is exactly one record the global phase delivers for it (the
		// surrogate dedup merges a sender row's endpoints into one record,
		// but distinct sender rows stay distinct records). The same count is
		// exact for CETRIC's cut lists — cut edges are precisely the remote
		// ones.
		adj := lg.RowNeighbors(r)
		adjR := lg.RowNeighborRows(r)
		var req uint64
		for i, ur := range adjR {
			if ur < nLoc {
				continue
			}
			if graph.Less(lg.Degree(ur), adj[i], deg, v) {
				req++
			}
		}
		if req == 0 {
			continue // attracts no shipments
		}
		if alen == 0 {
			// Dead endpoint: attracts records but its shipped list is empty,
			// so no intersection against it can ever produce a triangle —
			// the LPT cannot balance this work, but senders can skip it
			// entirely. Under the degree orientation these are precisely the
			// locally-heaviest rows, so the waste is concentrated where the
			// skew is.
			dead = append(dead, deadRow{gid: v, req: req})
			continue
		}
		w := float64(req) * (listBar + float64(alen))
		if deg >= minDeg {
			cands = append(cands, cand{row: r, req: req, alen: alen, w: w})
		} else {
			base += w
		}
	}
	// Heaviest dead rows first, bounded like the hub nominations so the
	// exchange stays O(p) regardless of graph shape.
	sort.Slice(dead, func(a, b int) bool {
		if dead[a].req != dead[b].req {
			return dead[a].req > dead[b].req
		}
		return dead[a].gid < dead[b].gid
	})
	if len(dead) > placementMaxDeadPerPE {
		dead = dead[:placementMaxDeadPerPE]
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].w != cands[b].w {
			return cands[a].w > cands[b].w
		}
		return cands[a].row < cands[b].row
	})
	if len(cands) > placementMaxHubsPerPE {
		for _, c := range cands[placementMaxHubsPerPE:] {
			base += c.w
		}
		cands = cands[:placementMaxHubsPerPE]
	}
	// The nomination vector piggybacks this rank's calibration accumulators:
	// rank 0 pools them before fitting, so the α/β pricing the solve reflects
	// the whole cluster's metered sends, not just rank 0's few frames (a
	// single rank rarely reaches MinCalibrationSamples by the time the degree
	// exchange finishes).
	m := pe.C.M
	vec := make([]uint64, 0, 8+len(dead)+4*len(cands))
	vec = append(vec, math.Float64bits(base),
		uint64(m.LatSamples), math.Float64bits(m.LatSumNs), math.Float64bits(m.LatSumBytes),
		math.Float64bits(m.LatSumNsB), math.Float64bits(m.LatSumBytes2),
		uint64(len(dead)), uint64(len(cands)))
	for _, d := range dead {
		vec = append(vec, d.gid)
	}
	for _, c := range cands {
		vec = append(vec, lg.GID(c.row), c.req, c.alen, uint64(c.w))
	}
	gathered := pe.C.Gather(vec)
	var reply []uint64
	if pe.Rank == 0 {
		bases := make([]float64, pe.P)
		var pooled comm.Metrics
		var hubs []part.HubLoad
		var deadGIDs []uint64
		for r, v := range gathered {
			bases[r] = math.Float64frombits(v[0])
			pooled.LatSamples += int64(v[1])
			pooled.LatSumNs += math.Float64frombits(v[2])
			pooled.LatSumBytes += math.Float64frombits(v[3])
			pooled.LatSumNsB += math.Float64frombits(v[4])
			pooled.LatSumBytes2 += math.Float64frombits(v[5])
			nd, n := int(v[6]), int(v[7])
			deadGIDs = append(deadGIDs, v[8:8+nd]...)
			for i := 0; i < n; i++ {
				off := 8 + nd + 4*i
				hubs = append(hubs, part.HubLoad{GID: v[off], Owner: r, Requests: v[off+1], AListLen: v[off+2], Work: v[off+3]})
			}
		}
		prof := placementProfile(cfg, pooled)
		pl := part.ComputePlacement(pe.P, bases, hubs, prof.Alpha, prof.Beta, costmodel.IntersectSecPerWord)
		// One broadcast carries both decisions, sorted by GID (moved hubs
		// and dead rows are disjoint: a dead row has an empty list and was
		// never a HubLoad). Drop travels as the out-of-range rank p.
		type entry struct {
			gid uint64
			dst uint64
		}
		entries := make([]entry, 0, pl.Len()+len(deadGIDs))
		for i := 0; i < pl.Len(); i++ {
			gid, dst := pl.At(i)
			entries = append(entries, entry{gid: gid, dst: uint64(dst)})
		}
		for _, gid := range deadGIDs {
			entries = append(entries, entry{gid: gid, dst: uint64(pe.P)})
		}
		sort.Slice(entries, func(a, b int) bool { return entries[a].gid < entries[b].gid })
		reply = make([]uint64, 1, 1+2*len(entries))
		reply[0] = uint64(len(entries))
		for _, e := range entries {
			reply = append(reply, e.gid, e.dst)
		}
	}
	reply = pe.C.Broadcast(reply)
	k := int(reply[0])
	if k == 0 {
		return nil
	}
	gids := make([]uint64, k)
	dsts := make([]int32, k)
	for i := 0; i < k; i++ {
		gids[i] = reply[1+2*i]
		dsts[i] = int32(reply[2+2*i])
		if dsts[i] == int32(pe.P) {
			dsts[i] = part.Drop
		}
	}
	pl, err := part.NewPlacement(gids, dsts)
	if err != nil {
		panic("core: invalid placement broadcast: " + err.Error())
	}
	pr := &placeRun{pl: pl}
	for i := 0; i < k; i++ {
		// Dead rows need no owner-side bookkeeping: nothing ships for them,
		// and a ride-along appearance in another endpoint's record
		// intersects against their empty list for free.
		if dsts[i] != part.Drop && lg.IsLocal(gids[i]) {
			pr.redirRows = append(pr.redirRows, int32(gids[i]-lg.First))
			pr.redirGIDs = append(pr.redirGIDs, gids[i])
			pr.redirDst = append(pr.redirDst, dsts[i])
		}
	}
	return pr
}

// ship is the hub-shipment step (a no-op without a placement): under
// PhasePlace it sends every redirected local hub's neighborhood to its
// surrogate on chHubShip and drains to global quiescence. Drain's
// termination requires every PE to have entered its own hub-ship drain
// after flushing (probe replies only happen inside Drain), so when any PE
// proceeds past this point, every stored-hub table in the cluster is
// complete — no counting record can reach a surrogate before the
// neighborhood it must intersect with. The placement broadcast makes the
// nil-ness identical on every PE, so the drain is collective even for PEs
// with nothing of their own to ship.
func (pr *placeRun) ship(pe *dist.PE, sw *stopwatch, src *graph.LocalOriented) {
	if pr == nil {
		return
	}
	pe.Q.Handle(chHubShip, pr.handleShip)
	sw.phase(PhasePlace)
	var buf []uint64
	for i, row := range pr.redirRows {
		av := src.Out(row)
		buf = append(append(buf[:0], pr.redirGIDs[i]), av...)
		pe.Q.Send(chHubShip, int(pr.redirDst[i]), buf)
	}
	pe.Q.Drain()
	pr.ensureTable()
}

// handleShip stages one received (hub, A(hub)...) record; the frame's
// source rank is the hub's owner (only owners ship their hubs). Handlers
// are funneled through the PE's main goroutine, so plain appends suffice.
func (pr *placeRun) handleShip(src int, words []uint64) {
	pr.stagedGID = append(pr.stagedGID, words[0])
	pr.stagedOwner = append(pr.stagedOwner, int32(src))
	pr.stagedAdj = append(pr.stagedAdj, append([]uint64(nil), words[1:]...))
}

// ensureTable finalizes the stored-hub table. Guarded by a sync.Once
// because the first consumer may be a pool worker handling a counting
// record dispatched while this PE is still inside its hub-ship drain: such
// a record can only come from a PE that already exited the collective
// drain, which implies global hub-ship quiescence (the staging is
// complete), but the build must still be mutually exclusive with the main
// goroutine's own post-drain call.
func (pr *placeRun) ensureTable() { pr.once.Do(pr.buildTable) }

func (pr *placeRun) buildTable() {
	n := len(pr.stagedGID)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return pr.stagedGID[idx[a]] < pr.stagedGID[idx[b]] })
	total := 0
	for _, adj := range pr.stagedAdj {
		total += len(adj)
	}
	pr.hubGID = make([]uint64, n)
	pr.hubOwner = make([]int32, n)
	pr.hubOff = make([]int, n+1)
	pr.hubAdj = make([]uint64, 0, total)
	for k, i := range idx {
		pr.hubGID[k] = pr.stagedGID[i]
		pr.hubOwner[k] = pr.stagedOwner[i]
		pr.hubOff[k] = len(pr.hubAdj)
		pr.hubAdj = append(pr.hubAdj, pr.stagedAdj[i]...)
	}
	pr.hubOff[n] = len(pr.hubAdj)
	pr.stagedGID, pr.stagedOwner, pr.stagedAdj = nil, nil, nil
}

// redirect resolves a cut edge's effective destination: the surrogate when
// u is a moved hub, its owner otherwise.
func (pr *placeRun) redirect(owner int, u uint64) int {
	if j, ok := pr.pl.Of(u); ok {
		return j
	}
	return owner
}

// redirectedAway reports whether local row r is served by a surrogate
// elsewhere, so this PE must not intersect incoming records against it.
// Hand-rolled binary search: no closure, no allocation on the hot path.
func (pr *placeRun) redirectedAway(r int32) bool {
	lo, hi := 0, len(pr.redirRows)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if pr.redirRows[mid] < r {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(pr.redirRows) && pr.redirRows[lo] == r
}

// recvNeighAt is the receive path under the placement overlay (nil when
// off): pass 1, recvNeigh, intersects for the record's local endpoints minus
// the hubs redirected away from this PE; pass 2, surrogateScan, for the
// foreign hubs stored here that appear in the list. The sender ships each
// record exactly once per effective destination, so every oriented cut edge
// is resolved exactly once cluster-wide and the counts match the
// owner-driven path bit for bit.
func (s *countState) recvNeighAt(src int, v graph.Vertex, list []uint64, o *graph.LocalOriented, pr *placeRun) uint64 {
	c := s.recvNeigh(v, list, o, pr)
	if pr != nil {
		pr.ensureTable()
		c += s.surrogateScan(src, v, list, pr)
	}
	return c
}

// surrogateScan resolves pass 2 of a placed receive: a single merge scan
// finds the stored foreign hubs appearing in the (sorted) list, and each
// gets one intersection of the list against its stored neighborhood — the
// intersection its owner would have run, relocated verbatim (both sides
// are global-ID sorted). Hubs owned by src itself are skipped: the sender
// and the hub were co-located there, so (v, hub) was a local wedge the
// sender already resolved in its local phase — intersecting it again here
// would double-count every triangle on that wedge. LCC increments for
// these triangles may name vertices that are not rows here, so they
// accumulate in the side map and join the ghost-Δ postprocess exchange.
// Also used directly by the send sweeps when a redirected hub's surrogate
// is the sender itself (src == self never matches a stored owner: a
// surrogate is never the owner).
func (s *countState) surrogateScan(src int, v graph.Vertex, list []uint64, pr *placeRun) uint64 {
	if len(pr.hubGID) == 0 {
		return 0
	}
	var c uint64
	li := 0
	for hi := 0; hi < len(pr.hubGID) && li < len(list); hi++ {
		h := pr.hubGID[hi]
		for li < len(list) && list[li] < h {
			li++
		}
		if li >= len(list) || list[li] != h {
			continue
		}
		if pr.hubOwner[hi] == int32(src) {
			li++
			continue
		}
		stored := pr.hubAdj[pr.hubOff[hi]:pr.hubOff[hi+1]]
		s.recvWork += uint64(len(list) + len(stored))
		if !s.lcc && !s.collect {
			n := graph.CountIntersect(list, stored)
			s.count += n
			c += n
		} else {
			graph.ForEachCommon(list, stored, func(w graph.Vertex) {
				s.count++
				c++
				if s.lcc {
					s.sideAdd(v)
					s.sideAdd(h)
					s.sideAdd(w)
				}
				if s.collect {
					s.triangles = append(s.triangles, CanonTriangle(v, h, w))
				}
			})
		}
		li++
	}
	return c
}
