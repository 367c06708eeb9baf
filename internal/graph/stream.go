package graph

import (
	"fmt"

	"repro/internal/part"
)

// Streaming ingestion: the chunked counterpart of ScatterEdgesPar +
// BuildLocalPar. A one-shot run materializes the full global edge list and
// a complete p-way scatter before any PE starts building — O(|E|) words on
// the driver, the one place the reproduction still exceeded the paper's
// O(|E_i|) memory model. The streaming path instead scatters one batch at a
// time (ScatterEdgesRank keeps a single rank's slice) and folds each batch
// into a per-PE resident adjacency held by StreamBuilder, so peak driver
// memory drops to O(|E_i| + batch).
//
// StreamBuilder separates ingestion into two steps so the incremental
// counting driver (core.RunStream) can compute tri(G+Δ) − tri(G) between
// them:
//
//	Stage(batch)  — dedup the batch against itself and the resident rows,
//	                leaving per-row sorted lists of strictly-new neighbors Δ
//	Commit()      — merge Δ into the resident rows in place
//
// Fold = Stage + Commit is the plain loading path, and Seal materializes
// the resident adjacency through BuildLocalPar, so a sealed streamed build
// is byte-identical to the one-shot two-pass build of the same edges.

// ScatterEdgesRank returns only rank's slice of ScatterEdges(pt, edges):
// the edges incident to rank's vertex range, in input order —
// element-for-element identical to ScatterEdgesPar(pt, edges, threads)[rank]
// — without materializing the other p−1 slices. A multi-process rank driver
// (core.RunRank) and the streaming feeder use it to keep O(|E_rank|) per
// process instead of O(|E|). Endpoint ranks are recomputed in the placement
// pass rather than memoized: the memo array is itself an O(|E|) allocation,
// which is exactly what this variant exists to avoid.
func ScatterEdgesRank(pt *part.Partition, edges []Edge, rank, threads int) []Edge {
	if len(edges) == 0 {
		return nil
	}
	w := workersFor(threads, len(edges), parallelChunk)
	cnt := make([]int64, w)
	parallelBlocks(w, len(edges), func(worker, lo, hi int) {
		c := int64(0)
		for i := lo; i < hi; i++ {
			e := edges[i]
			if pt.Rank(e.U) == rank || pt.Rank(e.V) == rank {
				c++
			}
		}
		cnt[worker] = c
	})
	total := int64(0)
	for worker := 0; worker < w; worker++ {
		cnt[worker], total = total, total+cnt[worker]
	}
	if total == 0 {
		return nil
	}
	out := make([]Edge, total)
	parallelBlocks(w, len(edges), func(worker, lo, hi int) {
		cur := cnt[worker]
		for i := lo; i < hi; i++ {
			e := edges[i]
			if pt.Rank(e.U) == rank || pt.Rank(e.V) == rank {
				out[cur] = e
				cur++
			}
		}
	})
	return out
}

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

// StagedEntries returns the number of effective-new adjacency entries in
// the staged batch.
func (b *StreamBuilder) StagedEntries() int { return b.stagedTotal }

// Stage ingests one scattered batch without committing it. Candidates are
// bucketed per local row with a two-pass counting layout (the batch-scale
// analogue of the count + placement passes of BuildLocalPar), then every
// touched row is sorted, deduplicated, and subtracted against its resident
// row — forward-galloping through the resident list (searchFrom) — leaving
// the strictly-new Δ. The per-row
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
// [lo, hi), recording surviving Δ lengths in stagedLen.
func (b *StreamBuilder) stageSubtract(lo, hi int) {
	adj, off := b.stagedAdj, b.stagedOff
	for ti := lo; ti < hi; ti++ {
		seg := sortedDedup(adj[off[ti]:off[ti+1]])
		res := b.rows[b.touched[ti]]
		u, ri := 0, 0
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
		b.stagedLen[ti] = int32(u)
	}
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
// cursor always ahead of both read cursors), parallelized over rows.
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
	}
}

// Fold stages and immediately commits one batch — the plain loading path
// used while no counts are being maintained.
func (b *StreamBuilder) Fold(edges []Edge, threads int) {
	b.Stage(edges, threads)
	b.Commit(threads)
}

// Seal materializes the resident adjacency as a LocalGraph identical to
// BuildLocalPar over the same edges — but without re-materializing an edge
// list or re-running the sort pipeline. The resident rows already are the
// final local rows (sorted, deduplicated, global IDs); ghost rows are their
// transpose: walking local rows in ascending order and appending each row's
// global ID to the ghost rows of its cut entries yields ghost rows sorted
// for free. The only transients beyond the output arrays are the cut-entry
// collection for ghost discovery (≤ |E_i| words, vs the 2·|E_i|-word edge
// list plus the build pipeline's endpoint memo the old path paid). The
// builder stays usable: further batches can be staged after sealing.
func (b *StreamBuilder) Seal(threads int) *LocalGraph {
	return b.seal(threads, false)
}

// SealRelease is Seal for a builder that will take no further batches: each
// resident row is freed the moment it has been copied into the local view,
// and the row-index translation reads the view itself instead of the rows.
// The construction peak therefore holds roughly ONE copy of the adjacency
// (max of shrinking rows + growing view) rather than two — the difference
// between a streaming loader beating the one-shot driver's peak and merely
// matching it. The builder is spent afterwards; any further use panics.
func (b *StreamBuilder) SealRelease(threads int) *LocalGraph {
	return b.seal(threads, true)
}

func (b *StreamBuilder) seal(threads int, release bool) *LocalGraph {
	if b.staged {
		panic("graph: Seal with a staged batch pending")
	}
	l := &LocalGraph{
		Part:   b.pt,
		Rank:   b.rank,
		First:  b.first,
		Last:   b.last,
		nLocal: len(b.rows),
	}
	// Ghost discovery: collect every cut entry, sort, dedup.
	var cut []Vertex
	for _, row := range b.rows {
		for _, w := range row {
			if w < b.first || w >= b.last {
				cut = append(cut, w)
			}
		}
	}
	nCut := len(cut)
	l.ghostID = append([]Vertex(nil), sortedDedup(cut)...)
	cut = nil
	l.ghosts = newGhostIndex(l.ghostID)
	rows := l.nLocal + len(l.ghostID)

	// Offsets: local row lengths are known; each ghost row's length is its
	// incidence count among the cut entries (every cut entry is in the ghost
	// index by construction).
	off := make([]int64, rows+1)
	for r, row := range b.rows {
		off[r+1] = int64(len(row))
	}
	for _, row := range b.rows {
		for _, w := range row {
			if w < b.first || w >= b.last {
				g, _ := l.ghosts.find(w)
				off[l.nLocal+g+1]++
			}
		}
	}
	for r := 0; r < rows; r++ {
		off[r+1] += off[r]
	}

	// Fill adj: copy each local row and transpose its cut entries into the
	// ghost rows in the same ascending sweep — sequential by design, the
	// ascending order is what leaves each ghost row sorted. In release mode
	// each row is dropped as soon as it has been consumed, so the shrinking
	// rows and the growing view never both hold the full adjacency.
	adj := make([]Vertex, off[rows])
	var pos []int64
	if nCut > 0 {
		pos = make([]int64, len(l.ghostID))
		for i := range l.ghostID {
			pos[i] = off[l.nLocal+i]
		}
	}
	for r, row := range b.rows {
		copy(adj[off[r]:off[r+1]], row)
		v := b.first + Vertex(r)
		for _, w := range row {
			if w < b.first || w >= b.last {
				g, _ := l.ghosts.find(w)
				adj[pos[g]] = v
				pos[g]++
			}
		}
		if release {
			b.rows[r] = nil
		}
	}
	if release {
		b.rows, b.stagedIdx, b.stagedAdj, b.touched = nil, nil, nil, nil
		b.candR, b.candV, b.stagedOff, b.stagedLen = nil, nil, nil, nil
	}

	// Row-index translation reads adj itself (rows are no longer needed):
	// ghost rows hold only local IDs, local rows probe the ghost index.
	adjRow := make([]int32, off[rows])
	parallelFor(threads, rows, 64, func(_, rlo, rhi int) {
		for r := rlo; r < rhi; r++ {
			src := adj[off[r]:off[r+1]]
			dst := adjRow[off[r]:off[r+1]]
			for k, w := range src {
				dst[k] = l.Row(w)
			}
		}
	})
	l.off, l.adj, l.adjRow = off, adj, adjRow

	l.deg = make([]int, rows)
	for r := 0; r < l.nLocal; r++ {
		l.deg[r] = int(l.off[r+1] - l.off[r])
	}
	for r := l.nLocal; r < rows; r++ {
		l.deg[r] = -1
	}
	return l
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
