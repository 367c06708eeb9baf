package graph

import (
	"fmt"
	"runtime"
	"slices"
)

// The CSR builders. Each pass runs on runtime.GOMAXPROCS(0) workers, and
// each worker keeps its own count (later its own cursor) per row: a
// worker's entries land in a row after those of the workers before it, so
// every row comes out as one worker walking the whole input would fill
// it, and the CSR is the same at any worker count. The counts take a word
// per row and worker, so the workers are capped at the adjacency entries
// per row, at least one.

// FromEdges builds an undirected graph on n vertices from an edge list.
// Self-loops are dropped and duplicate edges are merged; the input slice is
// not modified. Edges referencing vertices >= n cause a panic, since that is
// always a programming error in this codebase.
//
// Each edge {u,v} is scattered as v into u's row and u into v's row, as
// 32-bit IDs: 4 B of scratch per adjacency entry, each worker from its own
// stretch of the list. The entries that land below their row's previous
// entry are counted, and that count picks how the rows get sorted:
//   - Rows that arrive out of order (R-MAT's and G(n,m)'s at random, about
//     half their entries below the one before) are sorted by counting
//     passes. Read as buckets, row x lists the owners whose rows hold x, so
//     walking x in ascending order and appending x to each owner's row
//     fills every row in ascending order, duplicates adjacent: one walk
//     counts each row's distinct entries, a second one places them. Each
//     worker walks its own range of buckets, about an equal share of the
//     entries, with its own marks for the duplicates.
//   - Rows that arrive (nearly) sorted, at most 1/32 of the entries below
//     the one before, are sorted one row at a time, spread over the
//     workers; a sorted row is only checked.
//
// Either way the adjacency array is allocated once, at its deduplicated
// size. From 2³² vertices on the IDs do not fit the scratch, and the rows
// are scattered, sorted and deduplicated in place at full width instead.
// Every path, at any worker count, builds the same CSR.
func FromEdges(n int, edges []Edge) *Graph {
	return fromEdges(runtime.GOMAXPROCS(0), n, [][]Edge{edges}, sortAuto)
}

// FromEdgeChunks is FromEdges over the concatenation of chunks, which it
// never makes: a generator whose workers each produced a list passes them
// as they are.
func FromEdgeChunks(n int, chunks [][]Edge) *Graph {
	return fromEdges(runtime.GOMAXPROCS(0), n, chunks, sortAuto)
}

// rowSort names how fromEdges sorts its rows. Every value but sortAuto
// forces one path, so that the tests can hold the paths against each other.
type rowSort int

const (
	sortAuto     rowSort = iota
	sortCounting         // counting passes over the 32-bit scratch
	sortPerRow           // per-row sort of the 32-bit scratch
	sortWide             // per-row sort in place at full width, no scratch
)

func fromEdges(threads, n int, chunks [][]Edge, how rowSort) *Graph {
	m := 0
	for _, c := range chunks {
		m += len(c)
	}
	w := rowWorkers(workersFor(threads, m, parallelChunk), n, 2*int64(m))
	// cnt[t*n+v] is worker t's count of entries for row v, then its cursor
	// into the row.
	cnt := make([]int64, w*n)
	parallelBlocks(w, m, func(t, lo, hi int) {
		c := cnt[t*n : (t+1)*n]
		eachPart(chunks, lo, hi, func(edges []Edge) {
			for _, e := range edges {
				if e.U == e.V {
					continue
				}
				if e.U >= Vertex(n) || e.V >= Vertex(n) {
					panic(fmt.Sprintf("graph: edge (%d,%d) out of range n=%d", e.U, e.V, n))
				}
				c[e.U]++
				c[e.V]++
			}
		})
	})
	off := make([]int64, n+1)
	placeCounts(threads, w, cnt, off)
	// pos ends as the deduplicated offsets: the CSR's own.
	pos := make([]int64, n+1)
	if how == sortWide || how == sortAuto && uint64(n) >= 1<<32 {
		adj := make([]Vertex, off[n])
		scatterRows(w, adj, cnt, chunks, m)
		sortRows(threads, adj, off, pos)
		compactRows(1, adj, off, pos, adj) // in place: one worker
		return &Graph{off: pos, adj: adj[:pos[n]]}
	}
	rows := make([]uint32, off[n])
	scatterRows(w, rows, cnt, chunks, m)
	if how == sortPerRow || how == sortAuto && countBelow(threads, rows, off) <= off[n]/32 {
		sortRows(threads, rows, off, pos)
		adj := make([]Vertex, pos[n])
		compactRows(threads, rows, off, pos, adj)
		return &Graph{off: pos, adj: adj}
	}
	// last[t*n+o] is x+1 for the last bucket x of worker t that reached
	// row o.
	last := make([]uint32, w*n)
	clear(cnt)
	parallelRows(w, off, func(t, lo, hi int) {
		c, l := cnt[t*n:(t+1)*n], last[t*n:(t+1)*n]
		for x := lo; x < hi; x++ {
			for _, o := range rows[off[x]:off[x+1]] {
				if l[o] != uint32(x+1) {
					l[o] = uint32(x + 1)
					c[o]++
				}
			}
		}
	})
	placeCounts(threads, w, cnt, pos)
	adj := make([]Vertex, pos[n])
	clear(last)
	parallelRows(w, off, func(t, lo, hi int) {
		c, l := cnt[t*n:(t+1)*n], last[t*n:(t+1)*n]
		for x := lo; x < hi; x++ {
			for _, o := range rows[off[x]:off[x+1]] {
				if l[o] != uint32(x+1) {
					l[o] = uint32(x + 1)
					adj[c[o]] = Vertex(x)
					c[o]++
				}
			}
		}
	})
	return &Graph{off: pos, adj: adj}
}

// FromRuns builds the undirected graph whose edges are {u, v} for every v
// of u's run. Each vertex u hands over its run, its neighbours above u in
// strictly ascending order; a run out of order, with an entry ≤ u or ≥ n,
// causes a panic. The runs come in chunks of chunk consecutive vertices:
// runs[c] holds the runs of vertices [c·chunk, min((c+1)·chunk, n)), one
// after another, and runLen[u] is the length of u's.
//
// No edge list is made. Row v is the transposed runs that name v, which
// arrive in ascending order of their owners, followed by v's own run: a
// count pass sizes the heads, and a placement pass copies each run into
// its row's tail and appends its owner to the heads of the rows it names.
// The workers take contiguous ranges of owners, with per-worker cursors.
// The CSR is the one FromEdges builds from the same edges.
func FromRuns(n, chunk int, runLen []int, runs [][]Vertex) *Graph {
	return fromRuns(runtime.GOMAXPROCS(0), n, chunk, runLen, runs)
}

func fromRuns(threads, n, chunk int, runLen []int, runs [][]Vertex) *Graph {
	if len(runLen) != n || chunk < 1 || len(runs) != (n+chunk-1)/chunk {
		panic(fmt.Sprintf("graph: %d run lengths in %d chunks of %d for n=%d", len(runLen), len(runs), chunk, n))
	}
	entries := int64(0)
	for _, r := range runs {
		entries += 2 * int64(len(r))
	}
	w := rowWorkers(workersFor(threads, n, parallelChunk), n, entries)
	// Worker t's counts, then cursors, into the heads are cnt[t*n:]; the
	// tails' are the last n.
	cnt := make([]int64, (w+1)*n)
	tail := cnt[w*n:]
	// each calls fn for the vertices of [lo, hi) in order, with their runs.
	each := func(lo, hi int, fn func(u int, run []Vertex)) {
		c, at := lo/chunk, 0
		for _, k := range runLen[c*chunk : lo] {
			at += k
		}
		for u := lo; u < hi; u++ {
			if u == (c+1)*chunk {
				c, at = c+1, 0
			}
			fn(u, runs[c][at:at+runLen[u]])
			at += runLen[u]
		}
	}
	parallelBlocks(w, n, func(t, lo, hi int) {
		head := cnt[t*n : (t+1)*n]
		each(lo, hi, func(u int, run []Vertex) {
			prev := Vertex(u)
			for _, v := range run {
				if v <= prev || v >= Vertex(n) {
					panic(fmt.Sprintf("graph: vertex %d's run holds %d after %d, n=%d: runs ascend strictly, above their vertex and below n", u, v, prev, n))
				}
				head[v]++
				prev = v
			}
			tail[u] = int64(len(run))
		})
	})
	off := make([]int64, n+1)
	placeCounts(threads, w+1, cnt, off)
	adj := make([]Vertex, off[n])
	parallelBlocks(w, n, func(t, lo, hi int) {
		head := cnt[t*n : (t+1)*n]
		each(lo, hi, func(u int, run []Vertex) {
			copy(adj[tail[u]:], run)
			for _, v := range run {
				adj[head[v]] = Vertex(u)
				head[v]++
			}
		})
	})
	return &Graph{off: off, adj: adj}
}

// rowWorkers caps workers so that a word per row and worker (n rows) are
// no more words than the adjacency entries.
func rowWorkers(workers, n int, entries int64) int {
	if n > 0 && int64(workers)*int64(n) > entries {
		return max(1, int(entries/int64(n)))
	}
	return workers
}

// placeCounts sums w workers' per-row counts, cnt[t*n+v] for n rows, into
// the row offsets off (len n+1), and turns each count into that worker's
// cursor: the row's start plus the counts of the workers before it.
func placeCounts(threads, w int, cnt, off []int64) {
	n := len(off) - 1
	ParallelFor(threads, n, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			total := int64(0)
			for t := 0; t < w; t++ {
				c := cnt[t*n+v]
				cnt[t*n+v] = total
				total += c
			}
			off[v+1] = total
		}
	})
	off[0] = 0
	prefixSum(off)
	ParallelFor(threads, n, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			for t := 0; t < w; t++ {
				cnt[t*n+v] += off[v]
			}
		}
	})
}

// eachPart calls fn on the parts of chunks that hold the edges [lo, hi)
// of their concatenation, in order.
func eachPart(chunks [][]Edge, lo, hi int, fn func([]Edge)) {
	for _, c := range chunks {
		if lo < len(c) && hi > 0 {
			fn(c[max(lo, 0):min(hi, len(c))])
		}
		lo, hi = lo-len(c), hi-len(c)
	}
}

// scatterRows writes v into u's row and u into v's row for every edge {u,v}
// but a self-loop, worker t from its block of the edges at its cursors
// cur[t*n:], which it advances.
func scatterRows[T uint32 | uint64](w int, rows []T, cur []int64, chunks [][]Edge, m int) {
	n := len(cur) / w
	parallelBlocks(w, m, func(t, lo, hi int) {
		c := cur[t*n : (t+1)*n]
		eachPart(chunks, lo, hi, func(edges []Edge) {
			for _, e := range edges {
				if e.U != e.V {
					rows[c[e.U]] = T(e.V)
					c[e.U]++
					rows[c[e.V]] = T(e.U)
					c[e.V]++
				}
			}
		})
	})
}

// countBelow returns how many entries of the rows lie below the entry
// before them in their row.
func countBelow(threads int, rows []uint32, off []int64) int64 {
	n := len(off) - 1
	below := make([]int64, workersFor(threads, n, parallelChunk))
	ParallelFor(threads, n, func(t, lo, hi int) {
		k := int64(0)
		for v := lo; v < hi; v++ {
			for i := off[v] + 1; i < off[v+1]; i++ {
				if rows[i] < rows[i-1] {
					k++
				}
			}
		}
		below[t] += k
	})
	total := int64(0)
	for _, k := range below {
		total += k
	}
	return total
}

// sortRows sorts every row in place, the rows spread over the workers, and
// leaves the deduplicated offsets in dedup.
func sortRows[T uint32 | uint64](threads int, rows []T, off, dedup []int64) {
	ParallelFor(threads, len(off)-1, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			row := rows[off[v]:off[v+1]]
			if !slices.IsSorted(row) {
				slices.Sort(row)
			}
			d := int64(0)
			for i := range row {
				if i == 0 || row[i] != row[i-1] {
					d++
				}
			}
			dedup[v+1] = d
		}
	})
	dedup[0] = 0
	prefixSum(dedup)
}

// compactRows copies each sorted row of rows without its duplicates into
// adj at its deduplicated offset. rows may be adj itself; the copy is then
// safe only on one worker.
func compactRows[T uint32 | uint64](threads int, rows []T, off, dedup []int64, adj []Vertex) {
	ParallelFor(threads, len(off)-1, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			w := dedup[v]
			for i := off[v]; i < off[v+1]; i++ {
				if i == off[v] || rows[i] != rows[i-1] {
					adj[w] = Vertex(rows[i])
					w++
				}
			}
		}
	})
}

// prefixSum turns per-row counts, held one slot to the right, into offsets.
func prefixSum(off []int64) {
	for i := 1; i < len(off); i++ {
		off[i] += off[i-1]
	}
}
