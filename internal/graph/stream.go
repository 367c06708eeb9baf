package graph

import (
	"fmt"
	"slices"

	"repro/internal/part"
)

// Streaming ingestion: the front end of the row-slab builder (buildRows,
// local.go) for a graph that arrives as edge batches rather than as a CSR.
// A one-shot run hands every PE its rows of the global CSR and holds no
// edge list at all; what a stream saves is holding the global graph: the
// driver scatters one batch at a time and each PE folds its slice into a
// resident adjacency held by StreamBuilder, so memory outside the PEs stays
// O(batch) and each PE's O(|E_i|).
//
// StreamBuilder separates ingestion into two steps so the incremental
// counting driver (core.RunStream) can compute tri(G+Δ) − tri(G) between
// them:
//
//	Stage(batch)  — dedup the batch against itself and the resident rows,
//	                leaving per-row sorted lists of strictly-new neighbors Δ
//	Commit()      — merge Δ into the resident rows in place
//
// Fold = Stage + Commit is the plain loading path. The resident rows are
// exactly a row slab — sorted, duplicate-free global IDs per local vertex —
// so Seal hands them to buildRows as they are, and a sealed streamed build
// is byte-identical to BuildLocalCSR on the graph of the same edges.
//
// Row bitmaps. Once Seal has run (inserts follow), every resident row with
// at least BitsetWords(n) entries also keeps a Bitset of its IDs over
// [0, n), so the delta counter can test a short list against a long row bit
// by bit instead of scanning the row, and Stage can drop a batch's repeats
// of a long row's entries by one bit test each instead of galloping through
// the row. Seal builds them, and Commit sets the bits of every merged Δ
// entry and gives a row its bitmap when it crosses the threshold, so
// between Stage and Commit a bitmap holds its row's pre-batch state. A
// bitmap's words never exceed its row's entries, so all bitmap words of a
// PE stay at most Entries(): the one-word-per-entry cap of TriC's static
// hub index (buildHubs).

// StreamBuilder accumulates one PE's scattered edge batches into a resident
// per-local-row adjacency (sorted global IDs, duplicates removed). Ghost
// rows and row translation are deliberately absent: they are derived state,
// rebuilt by Seal when counting starts. All per-batch scratch is retained
// across batches, so steady-state staging of a batch that brings nothing
// new allocates nothing (BenchmarkStreamInsertSteadyState pins this).
type StreamBuilder struct {
	pt          *part.Partition
	rank        int
	first, last Vertex
	rows        [][]Vertex // per local row: sorted, deduplicated global IDs
	entries     int        // total resident adjacency entries

	// Row bitmaps (nil until Seal): per row, the row's IDs over [0, n) once
	// it holds at least stride entries, nil below that.
	stride  int
	bitmaps []Bitset

	// Staged batch (valid between Stage and Commit).
	staged      bool
	touched     []int32  // staged rows, in first-appearance order
	stagedOff   []int32  // per touched row: segment start in stagedAdj
	stagedLen   []int32  // per touched row: surviving Δ length
	stagedAdj   []Vertex // segment storage (gaps where duplicates died)
	stagedIdx   []int32  // dense row → touched index + 1; 0 = untouched
	stagedTotal int

	// Batch scratch, retained across batches.
	candR []int32
	candV []Vertex
}

// NewStreamBuilder creates an empty builder for rank's rows of pt.
func NewStreamBuilder(pt *part.Partition, rank int) *StreamBuilder {
	first, last := pt.Range(rank)
	n := int(last - first)
	return &StreamBuilder{
		pt:    pt,
		rank:  rank,
		first: first,
		last:  last,
		rows:  make([][]Vertex, n),
		// stagedIdx is the only dense array: O(n_i), the same order as the
		// resident row headers themselves.
		stagedIdx: make([]int32, n),
	}
}

// First returns the first owned global ID.
func (b *StreamBuilder) First() Vertex { return b.first }

// Last returns one past the last owned global ID.
func (b *StreamBuilder) Last() Vertex { return b.last }

// NLocal returns the number of owned rows.
func (b *StreamBuilder) NLocal() int { return len(b.rows) }

// Entries returns the number of resident adjacency entries (each
// local-local edge counted twice, each cut edge once — the streamed
// counterpart of LocalGraph.LocalEdges before ghost rows exist).
func (b *StreamBuilder) Entries() int { return b.entries }

// Row returns the resident sorted neighborhood of local row r. During a
// staged batch this is still the pre-batch state ("old" in the delta
// counting identities); Commit folds the staged Δ in.
func (b *StreamBuilder) Row(r int32) []Vertex { return b.rows[r] }

// RowBitmap returns the bitmap of Row(r) over [0, n), or nil when the row
// has none (fewer than BitsetWords(n) entries, or the builder is not sealed).
// Like Row, it holds the pre-batch state until Commit.
func (b *StreamBuilder) RowBitmap(r int32) Bitset {
	if b.bitmaps == nil {
		return nil
	}
	return b.bitmaps[r]
}

// Staged returns the rows touched by the staged batch (first-appearance
// order; some may have an empty Δ if every candidate was a duplicate).
func (b *StreamBuilder) Staged() []int32 { return b.touched }

// StagedRowOf returns the staged Δ of local row r: the sorted strictly-new
// neighbors this batch adds, disjoint from Row(r). Nil when r is untouched.
func (b *StreamBuilder) StagedRowOf(r int32) []Vertex {
	idx := b.stagedIdx[r]
	if idx == 0 {
		return nil
	}
	off := b.stagedOff[idx-1]
	return b.stagedAdj[off : off+b.stagedLen[idx-1]]
}

// Stage ingests one scattered batch without committing it. Candidates are
// bucketed per local row with a two-pass counting layout (the batch-scale
// twin of BuildLocalPar's count + placement passes), then every
// touched row is sorted, deduplicated, and subtracted against its resident
// row — through the row's bitmap where it has one, else forward-galloping
// through the resident list — leaving the strictly-new Δ. The per-row
// pass fans out over threads; the O(batch) bucketing stays sequential.
//
// Self-loops are dropped. An edge with neither endpoint in this PE's range
// is a scatter bug and panics.
func (b *StreamBuilder) Stage(edges []Edge, threads int) {
	if b.staged {
		panic("graph: Stage called with a batch already staged (missing Commit)")
	}
	b.staged = true
	first, last := b.first, b.last
	candR, candV := b.candR[:0], b.candV[:0]
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		uLoc := e.U >= first && e.U < last
		vLoc := e.V >= first && e.V < last
		if !uLoc && !vLoc {
			panic(fmt.Sprintf("graph: edge (%d,%d) has no endpoint on PE %d [%d,%d)",
				e.U, e.V, b.rank, first, last))
		}
		if uLoc {
			candR = append(candR, int32(e.U-first))
			candV = append(candV, e.V)
		}
		if vLoc {
			candR = append(candR, int32(e.V-first))
			candV = append(candV, e.U)
		}
	}
	b.candR, b.candV = candR, candV

	// Count pass: discover touched rows and their candidate counts.
	touched, cnt := b.touched[:0], b.stagedLen[:0]
	for _, r := range candR {
		if b.stagedIdx[r] == 0 {
			touched = append(touched, r)
			cnt = append(cnt, 0)
			b.stagedIdx[r] = int32(len(touched))
		}
		cnt[b.stagedIdx[r]-1]++
	}
	b.touched = touched

	// Prefix sums + placement into exact-size segments.
	off := growInt32(b.stagedOff, len(touched)+1)
	off[0] = 0
	for i, c := range cnt {
		off[i+1] = off[i] + c
	}
	b.stagedOff = off
	adj := growVertex(b.stagedAdj, int(off[len(touched)]))
	b.stagedAdj = adj
	cur := cnt // reuse counts as write cursors: cursor = off[i] + consumed
	for i := range cur {
		cur[i] = off[i]
	}
	for i, r := range candR {
		idx := b.stagedIdx[r] - 1
		adj[cur[idx]] = candV[i]
		cur[idx]++
	}

	b.stagedLen = cnt

	// Per-row: sort, dedup, subtract the resident row in place. Segment
	// writes are disjoint per touched row, so this parallelizes freely; the
	// single-worker path calls the method directly so the steady state stays
	// closure-free (and so allocation-free).
	if workersFor(threads, len(touched), streamRowChunk) == 1 {
		b.stageSubtract(0, len(touched))
	} else {
		parallelFor(threads, len(touched), streamRowChunk, func(_, lo, hi int) {
			b.stageSubtract(lo, hi)
		})
	}
	total := 0
	for _, c := range cnt {
		total += int(c)
	}
	b.stagedTotal = total
}

// streamRowChunk is the per-worker chunk of touched rows for the staged
// subtraction and commit-merge passes.
const streamRowChunk = 16

// stageSubtract sorts, dedups, and resident-subtracts touched rows
// [lo, hi), recording surviving Δ lengths in stagedLen. A row with a bitmap
// (sealed builders only; it still holds the pre-batch row) drops a
// candidate by one bit test; any other row forward-gallops through its
// resident list (searchFrom).
func (b *StreamBuilder) stageSubtract(lo, hi int) {
	adj, off := b.stagedAdj, b.stagedOff
	for ti := lo; ti < hi; ti++ {
		seg := sortedDedup(adj[off[ti]:off[ti+1]])
		r := b.touched[ti]
		u := 0
		if bm := b.RowBitmap(r); bm != nil {
			for _, x := range seg {
				if bm[x>>6]>>(x&63)&1 == 0 {
					seg[u] = x
					u++
				}
			}
		} else {
			res, ri := b.rows[r], 0
			for _, x := range seg {
				pos, found := searchFrom(res, x, ri)
				ri = pos
				if found {
					ri++
					continue
				}
				seg[u] = x
				u++
			}
		}
		b.stagedLen[ti] = int32(u)
	}
}

// shortSegment is the longest candidate segment sortedDedup sorts by
// insertion in place rather than through slices.Sort.
const shortSegment = 16

// sortedDedup sorts s and removes duplicates in place. A list that is
// already strictly ascending — the common case: edge lists arrive grouped by
// ascending endpoint — costs one scan and no write. A short list sorts by
// insertion from its first descent on: the prefix before it is sorted.
func sortedDedup(s []Vertex) []Vertex {
	for k := 1; k < len(s); k++ {
		if s[k] > s[k-1] {
			continue
		}
		if len(s) > shortSegment {
			slices.Sort(s)
			return slices.Compact(s)
		}
		for ; k < len(s); k++ {
			x, j := s[k], k
			for ; j > 0 && s[j-1] > x; j-- {
				s[j] = s[j-1]
			}
			s[j] = x
		}
		return slices.Compact(s)
	}
	return s
}

// searchFrom finds x in the ascending slice s at or after index from by
// exponential + binary search, returning the insertion index and whether x
// is present. The streaming builder's staged-batch subtraction scans an
// ascending probe sequence and passes the previous hit + 1 as from, so a
// whole scan costs O(k log gap) array probes.
func searchFrom(s []Vertex, x Vertex, from int) (int, bool) {
	lo, hi := from, from
	step := 1
	for hi < len(s) && s[hi] < x {
		lo = hi + 1
		hi += step
		step *= 2
	}
	if hi > len(s) {
		hi = len(s)
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s) && s[lo] == x {
		return lo, true
	}
	return lo, false
}

// Commit merges the staged Δ into the resident rows and clears the staged
// state. Each touched row grows once and merges backward in place (write
// cursor always ahead of both read cursors), parallelized over rows; a
// sealed builder's row bitmaps follow their rows.
func (b *StreamBuilder) Commit(threads int) {
	if !b.staged {
		panic("graph: Commit without a staged batch")
	}
	if workersFor(threads, len(b.touched), streamRowChunk) == 1 {
		b.commitMerge(0, len(b.touched))
	} else {
		parallelFor(threads, len(b.touched), streamRowChunk, func(_, lo, hi int) {
			b.commitMerge(lo, hi)
		})
	}
	for _, r := range b.touched {
		b.stagedIdx[r] = 0
	}
	b.entries += b.stagedTotal
	b.touched = b.touched[:0]
	b.stagedTotal = 0
	b.staged = false
}

// commitMerge folds the staged Δ of touched rows [lo, hi) into their
// resident rows: each row grows once and merges backward in place (the
// write cursor always stays ahead of both read cursors).
func (b *StreamBuilder) commitMerge(lo, hi int) {
	for ti := lo; ti < hi; ti++ {
		k := int(b.stagedLen[ti])
		if k == 0 {
			continue
		}
		o := int(b.stagedOff[ti])
		s := b.stagedAdj[o : o+k]
		r := b.touched[ti]
		old := b.rows[r]
		d := len(old)
		merged := append(old, s...) // tail values are placeholders
		i, j := d-1, k-1
		for w := d + k - 1; j >= 0; w-- {
			if i >= 0 && merged[i] > s[j] {
				merged[w] = merged[i]
				i--
			} else {
				merged[w] = s[j]
				j--
			}
		}
		b.rows[r] = merged
		if b.bitmaps != nil {
			b.index(r, s)
		}
	}
}

// index brings row r's bitmap up to date after added joined the row: it sets
// added's bits, or builds the bitmap from the whole row when the row has just
// reached stride entries.
func (b *StreamBuilder) index(r int32, added []Vertex) {
	if bm := b.bitmaps[r]; bm != nil {
		SetList(bm, added)
	} else if row := b.rows[r]; len(row) >= b.stride {
		bm = make(Bitset, b.stride)
		SetList(bm, row)
		b.bitmaps[r] = bm
	}
}

// Fold stages and immediately commits one batch — the plain loading path
// used while no counts are being maintained.
func (b *StreamBuilder) Fold(edges []Edge, threads int) {
	b.Stage(edges, threads)
	b.Commit(threads)
}

// Seal builds the local view of the resident adjacency: buildRows over the
// resident rows, read in place. The builder stays usable; further batches
// can be staged after sealing, and from here on it keeps the row bitmaps.
func (b *StreamBuilder) Seal(threads int) *LocalGraph {
	lg := b.seal(threads, false)
	if b.bitmaps == nil {
		b.stride = BitsetWords(int(b.pt.N()))
		b.bitmaps = make([]Bitset, len(b.rows))
		parallelFor(threads, len(b.rows), 1024, func(_, lo, hi int) {
			for r := lo; r < hi; r++ {
				b.index(int32(r), nil)
			}
		})
	}
	return lg
}

// SealRelease is Seal for a builder that will take no further batches: each
// resident row is dropped the moment buildRows has translated it into the
// view, so the construction holds roughly ONE copy of the adjacency (shrinking
// rows + filling view) rather than two, and it builds no row bitmaps. The
// builder is spent afterwards; any further use panics.
func (b *StreamBuilder) SealRelease(threads int) *LocalGraph {
	return b.seal(threads, true)
}

func (b *StreamBuilder) seal(threads int, release bool) *LocalGraph {
	if b.staged {
		panic("graph: Seal with a staged batch pending")
	}
	rows := b.rows
	var drop func(r int)
	if release {
		drop = func(r int) { rows[r] = nil }
		b.rows, b.stagedIdx, b.stagedAdj, b.touched = nil, nil, nil, nil
		b.candR, b.candV, b.stagedOff, b.stagedLen = nil, nil, nil, nil
	}
	return buildRows(b.pt, b.rank, func(r int) []Vertex { return rows[r] }, drop, threads)
}

// growInt32 returns s resized to n, reallocating only when capacity is
// short (with headroom, so repeated batches converge to zero allocations).
func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n, n+n/2)
	}
	return s[:n]
}

func growVertex(s []Vertex, n int) []Vertex {
	if cap(s) < n {
		return make([]Vertex, n, n+n/2)
	}
	return s[:n]
}
