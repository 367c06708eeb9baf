package graph

import (
	"cmp"
	"fmt"
	"slices"
)

// LocalOriented holds the degree-oriented out-neighborhoods A(v) of a PE's
// expanded local graph (Algorithm 3, lines 3–4):
//
//	local v: A(v) = {x ∈ N(v) | v ≺ x}
//	ghost v: A(v) = {x ∈ N(v) | v ≺ x ∧ x local}   (only local edges visible)
//
// Every orientation keeps OutRows(row): A(row) as row indices, sorted
// ascending by row — the shape every local intersection runs on, so the hot
// loops never touch the ghost index and can index dense tables over the row
// domain: the stamped byte Mark (see Probe) and, on TriC's ID orientation,
// the per-hub bitmaps. Row indices are 4 bytes (a PE holds at most MaxRows
// rows).
//
// Out(row), the same set as global IDs sorted ascending, is kept only where
// lists ship or meet received ID lists: the shipped shape needs no
// translation, and sorted IDs are what the delta-varint wire codec
// compresses. OrientLocalOnlyPar (DITRIC), OrientLocalByIDPar (TriC) and
// ContractPar (CETRIC's cut) keep it; OrientLocalPar (CETRIC's expansion,
// whose lists never leave the PE) does not, and Out panics there.
//
// The degree orientations require ghost degrees, i.e. the degree exchange
// must have run.
type LocalOriented struct {
	L      *LocalGraph
	off    []int64
	out    []Vertex // global IDs, ascending per row; nil when rows-only
	rowOut []uint32 // row indices, ascending per row
	hubs   hubIndex
}

// DefaultHubMinDegree is TriC's fixed hub threshold: the out-degree from
// which a row gets a packed bitmap in BuildHubs. TriC orients by ID, so hub
// rows keep their full neighborhoods and are probed once per in-edge; the
// bitmap kernel already beats the merge at equal operand sizes
// (BenchmarkIntersect), so the O(stride) build cost amortizes, and the
// memory cap in BuildHubs bounds the total bitmap footprint to one word per
// A-list entry. The degree orientations (DITRIC, CETRIC) keep out-lists
// short and build no hub index.
const DefaultHubMinDegree = 32

// hubIndex maps heavy rows to packed bitsets over the row domain, so
// hub ∩ anything becomes bit tests (or word-AND + popcount for hub ∩ hub).
// perRow holds one slice header per row (nil for non-hubs): a single load
// on the per-pair hot path, which matters more than the pointer overhead.
type hubIndex struct {
	stride int
	perRow []Bitset
	hubs   int
	bits   []uint64
}

func (h *hubIndex) bitset(row int) Bitset {
	if h.perRow == nil {
		return nil
	}
	return h.perRow[row]
}

// buildHubs indexes rows with list length ≥ minDeg, capping total bitmap
// memory at one bitmap word per list entry: with stride words per bitmap,
// at most len(entries)/stride rows get one, largest rows first. minDeg ≤ 0
// disables the index. The bitset domain is the row domain [0, rows).
// Candidate selection is sequential (cheap); the bitmap fills fan out over
// threads workers — each hub owns a disjoint stride of the backing word
// array.
func buildHubs(rows int, off []int64, entries []uint32, minDeg, threads int) hubIndex {
	var h hubIndex
	if minDeg <= 0 || rows == 0 || len(entries) == 0 {
		return h
	}
	h.stride = BitsetWords(rows)
	maxHubs := len(entries) / h.stride
	if maxHubs == 0 {
		return h
	}
	var cand []int32
	for r := 0; r < rows; r++ {
		if int(off[r+1]-off[r]) >= minDeg {
			cand = append(cand, int32(r))
		}
	}
	if len(cand) == 0 {
		return h
	}
	if len(cand) > maxHubs {
		// Keep the heaviest rows; ties broken by row for determinism.
		slices.SortFunc(cand, func(a, b int32) int {
			da, db := off[a+1]-off[a], off[b+1]-off[b]
			if da != db {
				return int(db - da)
			}
			return int(a - b)
		})
		cand = cand[:maxHubs]
	}
	h.perRow = make([]Bitset, rows)
	h.hubs = len(cand)
	h.bits = make([]uint64, len(cand)*h.stride)
	parallelFor(threads, len(cand), 4, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			r := cand[i]
			bs := Bitset(h.bits[i*h.stride : (i+1)*h.stride])
			SetList(bs, entries[off[r]:off[r+1]])
			h.perRow[r] = bs
		}
	})
	return h
}

// BuildHubs builds the packed hub-bitmap index over the row-translated
// A-lists: rows with |A(v)| ≥ minDeg get a bitset over the row domain
// (memory-capped; see buildHubs). minDeg ≤ 0 disables the index, leaving
// Probe on the stamped mark and CountRowPair on the merge/gallop kernels.
// TriC is the one engine that builds it. Sequential; BuildHubsPar is the
// threaded variant.
func (o *LocalOriented) BuildHubs(minDeg int) { o.BuildHubsPar(minDeg, 1) }

// BuildHubsPar is BuildHubs with the bitmap fills fanned out over threads
// workers (hubs own disjoint strides of the backing array).
func (o *LocalOriented) BuildHubsPar(minDeg, threads int) {
	o.hubs = buildHubs(o.L.Rows(), o.off, o.rowOut, minDeg, threads)
}

// NumHubs returns the number of rows carrying a hub bitmap.
func (o *LocalOriented) NumHubs() int { return o.hubs.hubs }

// orientDegree orients rows [0,hi) by degree; rows [hi,Rows) stay empty.
// withIDs keeps Out beside OutRows. The ≺ test reads rows, degrees and the
// per-row ID table only (no ghost-index probe) and is written out, not
// passed as a closure — an indirect call per adjacency entry is measurable
// here.
//
// Two-pass counting layout, both passes parallel over rows (rows are
// independent): a count pass evaluates precedes once per entry, records it
// in keep and sums it into the per-row out-degrees, a sequential prefix sum
// turns them into offsets, and a placement pass keeps each row's entries
// branch-free — every candidate is written to the worker's scratch and the
// cursor advances by its keep byte, so no write lands in a row another
// worker owns and no degree or ID is loaded twice — then place moves the
// kept entries into row order.
func orientDegree(l *LocalGraph, hi, threads int, withIDs bool) *LocalOriented {
	rows := l.Rows()
	gid, deg := l.gid, l.deg
	off := make([]int64, rows+1)
	keep := make([]uint8, l.off[hi]) // precedes(row, entry), per entry of rows [0,hi)
	parallelFor(threads, hi, orientChunk, func(_, rlo, rhi int) {
		for r := rlo; r < rhi; r++ {
			v, dv := gid[r], deg[r]
			adjR := l.RowNeighborRows(int32(r))
			kr := keep[l.off[r]:l.off[r+1]]
			kr = kr[:len(adjR)]
			cnt := uint64(0)
			for i, xr := range adjR {
				p := precedes(dv, v, deg[xr], gid[xr])
				kr[i] = uint8(p)
				cnt += p
			}
			off[r+1] = int64(cnt)
		}
	})
	o := newLocalOriented(l, off, withIDs)
	type scratch struct {
		ids []Vertex
		rws []uint32
	}
	scratches := make([]scratch, workersFor(threads, hi, orientChunk))
	parallelFor(threads, hi, orientChunk, func(worker, rlo, rhi int) {
		s := &scratches[worker]
		for r := rlo; r < rhi; r++ {
			adjR := l.RowNeighborRows(int32(r))
			kr := keep[l.off[r]:l.off[r+1]]
			kr = kr[:len(adjR)]
			s.rws = slices.Grow(s.rws[:0], len(adjR))
			rws := s.rws[:len(adjR)]
			k := uint64(0)
			if withIDs {
				s.ids = slices.Grow(s.ids[:0], len(adjR))
				ids := s.ids[:len(adjR)]
				for i, xr := range adjR {
					ids[k], rws[k] = gid[xr], xr
					k += uint64(kr[i])
				}
				copy(o.out[o.off[r]:], ids[:k])
			} else {
				for i, xr := range adjR {
					rws[k] = xr
					k += uint64(kr[i])
				}
			}
			o.place(r, rws[:k])
		}
	})
	return o
}

// newLocalOriented prefix-sums the per-row out-degrees in off[1:] into
// offsets and allocates the row-space layout to fit, and the ID layout
// beside it when withIDs is set.
func newLocalOriented(l *LocalGraph, off []int64, withIDs bool) *LocalOriented {
	rows := len(off) - 1
	for r := 0; r < rows; r++ {
		off[r+1] += off[r]
	}
	o := &LocalOriented{L: l, off: off, rowOut: make([]uint32, off[rows])}
	if withIDs {
		o.out = make([]Vertex, off[rows])
	}
	return o
}

// place fills row r's row-space list from its kept entries rws, which are
// in ID order: [low ghosts][locals][high ghosts]. Ghost rows are numbered in
// ID order after the locals, so row order is locals, low ghosts, high
// ghosts. The low ghosts are the prefix whose rows fall in [nLoc,
// nLoc+nLow), the high ghosts the suffix at or above nLoc+nLow; both scans
// pass over ghost entries only.
func (o *LocalOriented) place(r int, rws []uint32) {
	nLoc, nLow := uint32(o.L.nLocal), uint32(o.L.nLow)
	lo := 0
	for lo < len(rws) && rws[lo]-nLoc < nLow {
		lo++
	}
	hi := len(rws)
	for hi > lo && rws[hi-1] >= nLoc+nLow {
		hi--
	}
	dst := o.rowOut[o.off[r]:o.off[r+1]]
	n := copy(dst, rws[lo:hi])
	n += copy(dst[n:], rws[:lo])
	copy(dst[n:], rws[hi:])
}

// orientChunk is the number of rows per stolen chunk in the orientation,
// contraction, and row sort/dedup passes.
const orientChunk = 128

// requireDegrees panics unless every ghost degree is known: degree
// orientation compares against the degrees of neighbors, which may be ghosts
// even when only local rows are oriented.
func requireDegrees(l *LocalGraph) {
	for r := 0; r < l.Rows(); r++ {
		if l.Degree(int32(r)) < 0 {
			panic(fmt.Sprintf("graph: ghost degree of row %d unknown on PE %d; run the degree exchange first", r, l.Rank))
		}
	}
}

// OrientLocalPar computes the A-lists of every row (locals and ghosts) over
// threads workers, in row space only: CETRIC's expansion, whose lists are
// intersected on this PE and never shipped. Its result has no Out.
func OrientLocalPar(l *LocalGraph, threads int) *LocalOriented {
	requireDegrees(l)
	return orientDegree(l, l.Rows(), threads, false)
}

// OrientLocalOnlyPar computes A-lists for local rows only, leaving ghost
// rows empty, over threads workers, with Out beside OutRows. DITRIC uses
// this: it never expands ghost neighborhoods, which is exactly the
// preprocessing work it saves compared to CETRIC, and it ships A(v).
func OrientLocalOnlyPar(l *LocalGraph, threads int) *LocalOriented {
	requireDegrees(l)
	return orientDegree(l, l.NLocal(), threads, true)
}

// OrientLocalByIDPar orients the expanded local graph by vertex ID only (no
// degrees) over threads workers, with Out beside OutRows: the TriC
// baseline, which skips the degree orientation and needs no ghost-degree
// exchange. A row is in ID order, so the entries above its own ID are a
// suffix: one binary search per row.
func OrientLocalByIDPar(l *LocalGraph, threads int) *LocalOriented {
	rows := l.Rows()
	off := make([]int64, rows+1)
	for r := 0; r < rows; r++ {
		adjR := l.RowNeighborRows(int32(r))
		i, _ := slices.BinarySearchFunc(adjR, l.gid[r]+1, func(xr uint32, v Vertex) int {
			return cmp.Compare(l.gid[xr], v)
		})
		off[r+1] = int64(len(adjR) - i)
	}
	o := newLocalOriented(l, off, true)
	parallelFor(threads, rows, orientChunk, func(_, rlo, rhi int) {
		for r := rlo; r < rhi; r++ {
			adjR := l.RowNeighborRows(int32(r))
			kept := adjR[len(adjR)-o.OutDegree(int32(r)):]
			ids := o.out[o.off[r]:o.off[r+1]]
			for k, xr := range kept {
				ids[k] = l.gid[xr]
			}
			o.place(r, kept)
		}
	})
	return o
}

// Out returns A(row), global IDs sorted ascending. Aliases internal storage.
// It panics on a rows-only orientation (OrientLocalPar).
func (o *LocalOriented) Out(row int32) []Vertex {
	if o.out == nil {
		panicRowsOnly()
	}
	return o.out[o.off[row]:o.off[row+1]]
}

// panicRowsOnly is Out's failure, kept out of line so that Out inlines.
func panicRowsOnly() {
	panic("graph: LocalOriented.Out on a rows-only orientation (OrientLocalPar keeps no global IDs); use OutRows and LocalGraph.GID")
}

// OutRows returns A(row) translated to row indices, sorted ascending by row.
// Aliases internal storage.
func (o *LocalOriented) OutRows(row int32) []uint32 { return o.rowOut[o.off[row]:o.off[row+1]] }

// OutDegree returns |A(row)|.
func (o *LocalOriented) OutDegree(row int32) int { return int(o.off[row+1] - o.off[row]) }

// CutOutDegree returns the number of ghosts in A(row): the row's out-degree
// in the cut graph ContractPar keeps.
func (o *LocalOriented) CutOutDegree(row int32) int { return len(o.ghostSuffix(row)) }

// HubBitset returns the packed bitmap of a hub row, or nil.
func (o *LocalOriented) HubBitset(row int32) Bitset { return o.hubs.bitset(int(row)) }

// NewRowMark returns a clear mark over o's row domain (Rows bytes).
func (o *LocalOriented) NewRowMark() *Mark { return NewMark(o.L.Rows()) }

// Probe is the stamped wedge kernel's hub dispatch: for the list stamped in
// m and the partner row, it returns what to test so that the members are
// list ∩ A(row). Normally hub is nil and probe is A(row), to be tested
// against the mark itself — |A(row)| byte loads, the stamped list is not
// scanned again. When row carries a hub bitmap (only TriC builds them) and
// the stamped list is the shorter side, the roles swap: hub is the row's
// bitmap and probe the stamped list, tested against it with the Bitset
// kernels. Either way a source list of length L with partners u₁…u_k costs
// L + Σ min(|A(uᵢ)|, L·[uᵢ is a hub]) tests, not the k·L + Σ|A(uᵢ)| steps
// of k independent merges. len(probe) is the work the pair costs, which is
// what the receive-side work meter charges.
func (o *LocalOriented) Probe(m *Mark, row int32) (hub Bitset, probe []uint32) {
	au := o.OutRows(row)
	if hub := o.hubs.bitset(int(row)); hub != nil && len(m.list) < len(au) {
		return hub, m.list
	}
	return nil, au
}

// CountRowPair returns |A(a) ∩ A(b)| in row space. Hub pairs use word-AND +
// popcount when both lists are longer than the bitmap stride (otherwise bit
// tests over the shorter list win); single hubs use bit tests; the rest goes
// to the adaptive merge/gallop kernels.
func (o *LocalOriented) CountRowPair(a, b int32) uint64 {
	ba, bb := o.hubs.bitset(int(a)), o.hubs.bitset(int(b))
	switch {
	case ba != nil && bb != nil:
		la, lb := o.OutDegree(a), o.OutDegree(b)
		if min(la, lb) < o.hubs.stride {
			if la <= lb {
				return CountList(bb, o.OutRows(a))
			}
			return CountList(ba, o.OutRows(b))
		}
		return ba.CountAnd(bb)
	case bb != nil:
		return CountList(bb, o.OutRows(a))
	case ba != nil:
		return CountList(ba, o.OutRows(b))
	default:
		return CountIntersect(o.OutRows(a), o.OutRows(b))
	}
}

// ContractPar applies the contraction step (Algorithm 3, line 8) over
// threads workers: for every local vertex, keep only the out-neighbors that
// are ghosts (cut out-edges); ghost rows become empty. The result is the
// PE's part of the cut graph ∂G, restricted to outgoing edges, with Out
// beside OutRows: these are the lists CETRIC ships. In row space a row's
// ghosts are the suffix ≥ NLocal of its ascending list, and ghost rows are
// numbered in ID order, so that suffix is also the ID-sorted cut list. Hub
// bitmaps are not carried over.
func (o *LocalOriented) ContractPar(threads int) *LocalOriented {
	l := o.L
	nLocal := l.NLocal()
	off := make([]int64, l.Rows()+1)
	parallelFor(threads, nLocal, orientChunk, func(_, rlo, rhi int) {
		for r := rlo; r < rhi; r++ {
			off[r+1] = int64(len(o.ghostSuffix(int32(r))))
		}
	})
	cut := newLocalOriented(l, off, true)
	parallelFor(threads, nLocal, orientChunk, func(_, rlo, rhi int) {
		for r := rlo; r < rhi; r++ {
			src := o.ghostSuffix(int32(r))
			copy(cut.rowOut[off[r]:], src)
			ids := cut.out[off[r]:off[r+1]]
			for k, xr := range src {
				ids[k] = l.gid[xr]
			}
		}
	})
	return cut
}

// ghostSuffix returns the ghost entries of A(row): the suffix ≥ NLocal of
// the ascending row list.
func (o *LocalOriented) ghostSuffix(row int32) []uint32 {
	src, nLoc := o.OutRows(row), uint32(o.L.nLocal)
	i := len(src)
	for i > 0 && src[i-1] >= nLoc {
		i--
	}
	return src[i:]
}
