package graph

import (
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/part"
)

// LocalGraph is one PE's view of a 1D-partitioned graph (Fig. 1 of the
// paper): the PE's own vertices with complete neighborhoods, plus ghost
// vertices — remote endpoints of cut edges — whose visible neighborhoods
// contain only local vertices ("rewired incoming cut edges").
//
// Rows are indexed by a compact local index: rows 0..NLocal-1 are the local
// vertices in ID order (global ID = First + row), rows NLocal.. are ghosts
// sorted ascending by global ID. Adjacency entries store global IDs, sorted
// ascending, so neighborhoods can be merged and shipped as message payloads
// without translation.
type LocalGraph struct {
	Part  *part.Partition
	Rank  int
	First Vertex // first local global ID
	Last  Vertex // one past the last local global ID

	nLocal  int
	ghostID []Vertex   // row NLocal+i has global ID ghostID[i]
	ghosts  ghostIndex // global ID -> i, the inverse of ghostID
	off     []int64    // CSR offsets, len = rows+1
	adj     []Vertex   // global IDs, each row sorted ascending
	adjRow  []int32    // adj translated to row indices (same layout)
	deg     []int      // global degree per row; ghost entries -1 until set
}

// BuildLocal constructs the local view for one PE from the edges incident to
// at least one of its vertices. Edges with neither endpoint local are
// rejected; self loops are dropped; duplicates are merged. Sequential;
// BuildLocalPar is the threaded variant.
func BuildLocal(pt *part.Partition, rank int, edges []Edge) *LocalGraph {
	return BuildLocalPar(pt, rank, edges, 1)
}

// BuildLocalPar is BuildLocal parallelized over threads workers as a fused
// multi-pass pipeline:
//
//  1. Ghost discovery is sort-based, not map-based: workers collect the
//     non-local endpoints of their edge chunks, sort and dedup each chunk,
//     and a k-way merge yields the ascending ghost-ID array.
//  2. The ghost index — the one ghost lookup structure of the local view,
//     an O(1) open-addressing table (ghostIndex) — is built from that
//     array, and each edge endpoint is resolved to its row once (locals by
//     offset, ghosts through the index) and memoized, so the count and
//     placement passes are array reads.
//  3. Row counting and placement are parallel (atomic per-row counters and
//     cursors when threads > 1); placement order within a row is
//     thread-dependent but irrelevant, because
//  4. every row is sorted, deduplicated, and row-translated independently —
//     rows are disjoint, so the final compaction into exact-size arrays
//     fans out over rows.
//
// The result is byte-identical for every thread count.
func BuildLocalPar(pt *part.Partition, rank int, edges []Edge, threads int) *LocalGraph {
	lo, hi := pt.Range(rank)
	l := &LocalGraph{
		Part:   pt,
		Rank:   rank,
		First:  lo,
		Last:   hi,
		nLocal: int(hi - lo),
	}
	// Pass 1: sort-based ghost discovery (also validates edge locality).
	l.ghostID = discoverGhosts(lo, hi, rank, edges, threads)
	l.ghosts = newGhostIndex(l.ghostID)
	rows := l.nLocal + len(l.ghostID)

	// Pass 2 (fused memo + count): resolve the row of every edge endpoint
	// once (self loops become -1) and count entries per row in the same
	// sweep. With one worker the plain loop runs; with several, per-row
	// atomic counters keep the pass lock-free (rows are hit randomly, so
	// contention is negligible, and the per-row sort below erases placement
	// order anyway). The ghost index is read-only from here on, so workers
	// share it; discovery guarantees every non-local endpoint is in it.
	rowOf := make([]int32, 2*len(edges))
	cnt := make([]int64, rows+1)
	w := workersFor(threads, len(edges), parallelChunk)
	if w == 1 {
		for i, e := range edges {
			if e.U == e.V {
				rowOf[2*i] = -1
				continue
			}
			ru, rv := l.Row(e.U), l.Row(e.V)
			rowOf[2*i], rowOf[2*i+1] = ru, rv
			cnt[ru+1]++
			cnt[rv+1]++
		}
	} else {
		parallelFor(threads, len(edges), parallelChunk, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				e := edges[i]
				if e.U == e.V {
					rowOf[2*i] = -1
					continue
				}
				ru, rv := l.Row(e.U), l.Row(e.V)
				rowOf[2*i], rowOf[2*i+1] = ru, rv
				atomic.AddInt64(&cnt[ru+1], 1)
				atomic.AddInt64(&cnt[rv+1], 1)
			}
		})
	}
	off := make([]int64, rows+1)
	for i := 1; i <= rows; i++ {
		off[i] = off[i-1] + cnt[i]
	}
	adj := make([]Vertex, off[rows])
	pos := make([]int64, rows)
	copy(pos, off[:rows])
	if w == 1 {
		for i := 0; i < len(edges); i++ {
			ru, rv := rowOf[2*i], rowOf[2*i+1]
			if ru < 0 {
				continue
			}
			adj[pos[ru]] = edges[i].V
			pos[ru]++
			adj[pos[rv]] = edges[i].U
			pos[rv]++
		}
	} else {
		parallelFor(threads, len(edges), parallelChunk, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				ru, rv := rowOf[2*i], rowOf[2*i+1]
				if ru < 0 {
					continue
				}
				adj[atomic.AddInt64(&pos[ru], 1)-1] = edges[i].V
				adj[atomic.AddInt64(&pos[rv], 1)-1] = edges[i].U
			}
		})
	}

	// Pass 3: sort + dedup + row-translate every row. Each surviving entry
	// costs one ghost-index probe here and never needs resolution again —
	// orientation, local phases, and receive-side intersections all work on
	// the translated row indices.
	//
	// With one worker the sweep is fully fused: rows compact in place
	// behind a running write cursor. With several, compaction is split —
	// rows sort + dedup in place (disjoint slices of adj fan out over
	// workers), a sequential prefix sum over the surviving lengths fixes
	// the final offsets, and a second parallel sweep copies into exact-size
	// arrays while translating. The result is identical either way.
	if w == 1 {
		wr := int64(0)
		newOff := make([]int64, rows+1)
		adjRow := make([]int32, len(adj))
		for r := 0; r < rows; r++ {
			row := adj[off[r]:off[r+1]]
			slices.Sort(row)
			start := wr
			var last Vertex
			first := true
			for _, x := range row {
				if !first && x == last {
					continue
				}
				adj[wr] = x
				adjRow[wr] = l.Row(x)
				wr++
				last, first = x, false
			}
			newOff[r] = start
		}
		newOff[rows] = wr
		l.off, l.adj, l.adjRow = newOff, adj[:wr], adjRow[:wr]
	} else {
		uniq := make([]int64, rows)
		parallelFor(threads, rows, 64, func(_, rlo, rhi int) {
			for r := rlo; r < rhi; r++ {
				row := adj[off[r]:off[r+1]]
				slices.Sort(row)
				u := 0
				for k, x := range row {
					if k > 0 && x == row[u-1] {
						continue
					}
					row[u] = x
					u++
				}
				uniq[r] = int64(u)
			}
		})
		newOff := make([]int64, rows+1)
		for r := 0; r < rows; r++ {
			newOff[r+1] = newOff[r] + uniq[r]
		}
		outAdj := make([]Vertex, newOff[rows])
		adjRow := make([]int32, newOff[rows])
		parallelFor(threads, rows, 64, func(_, rlo, rhi int) {
			for r := rlo; r < rhi; r++ {
				src := adj[off[r] : off[r]+uniq[r]]
				dst := outAdj[newOff[r]:newOff[r+1]]
				dstR := adjRow[newOff[r]:newOff[r+1]]
				for k, x := range src {
					dst[k] = x
					dstR[k] = l.Row(x)
				}
			}
		})
		l.off, l.adj, l.adjRow = newOff, outAdj, adjRow
	}

	// Local degrees are exact (1D partition: every incident edge is visible);
	// ghost degrees are unknown until the degree exchange.
	l.deg = make([]int, rows)
	for r := 0; r < l.nLocal; r++ {
		l.deg[r] = int(l.off[r+1] - l.off[r])
	}
	for r := l.nLocal; r < rows; r++ {
		l.deg[r] = -1
	}
	return l
}

// discoverGhosts returns the ascending, deduplicated non-local endpoints of
// edges for the PE owning [first, last): workers collect the non-local
// endpoints of their chunks, sort + dedup each chunk in parallel, and a
// k-way merge (k = workers, so tiny) folds them together. Edges with no
// endpoint in [first, last) panic, self loops are ignored — the same
// contract as the map-based discovery it replaces.
func discoverGhosts(first, last Vertex, rank int, edges []Edge, threads int) []Vertex {
	w := workersFor(threads, len(edges), parallelChunk)
	chunks := make([][]Vertex, w)
	parallelBlocks(w, len(edges), func(worker, lo, hi int) {
		// U- and V-side ghosts are collected separately, dropping
		// immediately repeated endpoints: edge lists arrive grouped by
		// ascending U, so the U-side stream is typically already sorted
		// (skipping its comparison sort entirely — an O(n) check guards
		// arbitrary inputs) and a ghost U with several local neighbors
		// repeats back to back, so most duplicates never reach a sort.
		bufU := make([]Vertex, 0, 64)
		bufV := make([]Vertex, 0, 64)
		lastU, lastV := ^Vertex(0), ^Vertex(0)
		for i := lo; i < hi; i++ {
			e := edges[i]
			if e.U == e.V {
				continue
			}
			uLoc := e.U >= first && e.U < last
			vLoc := e.V >= first && e.V < last
			if !uLoc && !vLoc {
				panic(fmt.Sprintf("graph: edge (%d,%d) has no endpoint on PE %d [%d,%d)", e.U, e.V, rank, first, last))
			}
			if !uLoc && e.U != lastU {
				bufU = append(bufU, e.U)
				lastU = e.U
			}
			if !vLoc && e.V != lastV {
				bufV = append(bufV, e.V)
				lastV = e.V
			}
		}
		chunks[worker] = mergeSortedDedup(sortedDedup(bufU), sortedDedup(bufV))
	})
	if w == 1 {
		return chunks[0]
	}
	total := 0
	for _, c := range chunks {
		total += len(c)
	}
	out := make([]Vertex, 0, total)
	idx := make([]int, w)
	for {
		best := -1
		var bv Vertex
		for k := 0; k < w; k++ {
			if idx[k] < len(chunks[k]) && (best < 0 || chunks[k][idx[k]] < bv) {
				best, bv = k, chunks[k][idx[k]]
			}
		}
		if best < 0 {
			return out
		}
		idx[best]++
		if len(out) == 0 || out[len(out)-1] != bv {
			out = append(out, bv)
		}
	}
}

// sortedDedup sorts s unless it is already ascending (an O(n) check — the
// common case for U-side ghost streams) and removes duplicates in place.
func sortedDedup(s []Vertex) []Vertex {
	if !slices.IsSorted(s) {
		slices.Sort(s)
	}
	u := 0
	for k, x := range s {
		if k > 0 && x == s[u-1] {
			continue
		}
		s[u] = x
		u++
	}
	return s[:u]
}

// mergeSortedDedup merges two ascending deduplicated lists into one.
func mergeSortedDedup(a, b []Vertex) []Vertex {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]Vertex, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

func (l *LocalGraph) isLocal(v Vertex) bool { return v >= l.First && v < l.Last }

// RowTranslator is reusable scratch for TranslateRows; the zero value is
// ready to use. It grows to the largest list translated through it and then
// allocates nothing.
type RowTranslator struct {
	loc []uint64
	gho []uint64
}

// TranslateRows maps a global-ID list to row indices using tr's scratch,
// one O(1) ghost-index probe per non-local entry. Vertices that are neither
// local nor ghost here are dropped (they cannot appear in any local A-list).
// Locals come first — their rows precede all ghost rows — and ghost rows are
// in ID order, so a sorted list (every well-formed A-list) yields ascending
// rows with no comparison sort. Each entry resolves on its own: an
// out-of-order list comes back out of order, never short. The returned slice
// aliases tr's scratch and is valid until the next call; nLocal is the
// length of the local-row prefix.
func (l *LocalGraph) TranslateRows(tr *RowTranslator, list []Vertex) (rows []uint64, nLocal int) {
	loc, gho := tr.loc[:0], tr.gho[:0]
	first := l.First
	for _, x := range list {
		if l.isLocal(x) {
			loc = append(loc, x-first)
			continue
		}
		if g, ok := l.ghosts.find(x); ok {
			gho = append(gho, uint64(l.nLocal+g))
		}
	}
	nLocal = len(loc)
	loc = append(loc, gho...)
	tr.loc, tr.gho = loc, gho
	return loc, nLocal
}

// IsLocal reports whether v is owned by this PE.
func (l *LocalGraph) IsLocal(v Vertex) bool { return l.isLocal(v) }

// NLocal returns the number of local vertices.
func (l *LocalGraph) NLocal() int { return l.nLocal }

// NGhost returns the number of ghost vertices.
func (l *LocalGraph) NGhost() int { return len(l.ghostID) }

// Rows returns the total number of rows (locals + ghosts).
func (l *LocalGraph) Rows() int { return l.nLocal + len(l.ghostID) }

// Row maps a global ID (local vertex or known ghost) to its row index.
func (l *LocalGraph) Row(v Vertex) int32 {
	// isLocal as one comparison (v < First wraps far past nLocal): with the
	// ghost half out of line this keeps Row within the inlining budget.
	if r := v - l.First; r < Vertex(l.nLocal) {
		return int32(r)
	}
	return l.mustGhostRow(v)
}

// mustGhostRow is Row's ghost half, kept out of line so that Row itself
// inlines: the build and seal sweeps call Row once per adjacency entry, and
// on high-locality inputs nearly every entry takes the local branch.
func (l *LocalGraph) mustGhostRow(v Vertex) int32 {
	r, ok := l.GhostRow(v)
	if !ok {
		panic(fmt.Sprintf("graph: vertex %d is neither local nor ghost on PE %d", v, l.Rank))
	}
	return r
}

// GhostRow returns the row of a ghost vertex and whether it is known.
func (l *LocalGraph) GhostRow(v Vertex) (int32, bool) {
	g, ok := l.ghosts.find(v)
	return int32(l.nLocal + g), ok
}

// GID returns the global ID of a row.
func (l *LocalGraph) GID(row int32) Vertex {
	if int(row) < l.nLocal {
		return l.First + Vertex(row)
	}
	return l.ghostID[int(row)-l.nLocal]
}

// Ghosts returns the global IDs of all ghost vertices, ascending.
func (l *LocalGraph) Ghosts() []Vertex { return l.ghostID }

// RowNeighbors returns the visible neighborhood of a row (global IDs,
// ascending). For ghost rows this contains only local vertices.
func (l *LocalGraph) RowNeighbors(row int32) []Vertex { return l.adj[l.off[row]:l.off[row+1]] }

// RowNeighborRows returns the same neighborhood as RowNeighbors but
// translated to row indices (aligned element-for-element with the global-ID
// slice, i.e. ordered by global ID, not by row).
func (l *LocalGraph) RowNeighborRows(row int32) []int32 { return l.adjRow[l.off[row]:l.off[row+1]] }

// Degree returns the global degree of a row; -1 for ghosts before the
// ghost-degree exchange has run.
func (l *LocalGraph) Degree(row int32) int { return l.deg[row] }

// SetGhostDegree records the exchanged global degree of a ghost row.
func (l *LocalGraph) SetGhostDegree(row int32, d int) { l.deg[row] = d }

// LocalEdges returns the number of visible adjacency entries |E_i| (each
// local-local edge counted twice, cut edges once per side plus once in the
// ghost row). This is the quantity the buffering threshold δ = O(|E_i|) is
// tied to.
func (l *LocalGraph) LocalEdges() int { return len(l.adj) }

// CutEdges returns the number of cut edges incident to this PE.
func (l *LocalGraph) CutEdges() int {
	cut := 0
	for r := 0; r < l.nLocal; r++ {
		for _, u := range l.RowNeighbors(int32(r)) {
			if !l.isLocal(u) {
				cut++
			}
		}
	}
	return cut
}

// InterfaceVertices returns the number of local vertices adjacent to at
// least one ghost.
func (l *LocalGraph) InterfaceVertices() int {
	cnt := 0
	for r := 0; r < l.nLocal; r++ {
		for _, u := range l.RowNeighbors(int32(r)) {
			if !l.isLocal(u) {
				cnt++
				break
			}
		}
	}
	return cnt
}

// ScatterEdges splits a global edge list into one slice per PE, giving each
// edge to the owners of both endpoints (once if they coincide). It mirrors
// how a distributed loader or communication-free generator would materialize
// per-PE inputs. Sequential; ScatterEdgesPar is the threaded variant.
func ScatterEdges(pt *part.Partition, edges []Edge) [][]Edge {
	return ScatterEdgesPar(pt, edges, 1)
}

// ScatterEdgesPar is ScatterEdges as a two-pass counting layout instead of
// append-with-growth: a count pass builds per-worker rank histograms (and
// memoizes both endpoint ranks, so the binary searches run once per edge,
// not twice), prefix sums over (rank, worker) turn them into exact
// placement offsets, and a placement pass writes each edge directly into
// its destination slices. Workers own static contiguous blocks of the edge
// list, so worker-major placement preserves the input order per PE — the
// output is byte-identical to the sequential path for every thread count.
func ScatterEdgesPar(pt *part.Partition, edges []Edge, threads int) [][]Edge {
	p := pt.P()
	out := make([][]Edge, p)
	if len(edges) == 0 {
		return out
	}
	if p == 1 {
		// Single owner: the histograms would be vacuous, but the range
		// validation the Rank calls perform on every other path must not be
		// skipped — a bad ID caught here panics at load time, not deep
		// inside a later phase.
		n := pt.N()
		parallelFor(threads, len(edges), parallelChunk, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				if e := edges[i]; e.U >= n || e.V >= n {
					panic(fmt.Sprintf("part: vertex %d out of range n=%d", max(e.U, e.V), n))
				}
			}
		})
		out[0] = slices.Clone(edges)
		return out
	}
	w := workersFor(threads, len(edges), parallelChunk)
	ranks := make([]int32, 2*len(edges))
	cnt := make([]int64, w*p) // per-worker rank histograms
	parallelBlocks(w, len(edges), func(worker, lo, hi int) {
		c := cnt[worker*p : (worker+1)*p]
		for i := lo; i < hi; i++ {
			e := edges[i]
			ru := int32(pt.Rank(e.U))
			rv := int32(pt.Rank(e.V))
			ranks[2*i], ranks[2*i+1] = ru, rv
			c[ru]++
			if rv != ru {
				c[rv]++
			}
		}
	})
	// Prefix sums: pos[worker*p+pe] is worker's first write index in out[pe].
	pos := make([]int64, w*p)
	for pe := 0; pe < p; pe++ {
		total := int64(0)
		for worker := 0; worker < w; worker++ {
			pos[worker*p+pe] = total
			total += cnt[worker*p+pe]
		}
		if total > 0 {
			out[pe] = make([]Edge, total)
		}
	}
	parallelBlocks(w, len(edges), func(worker, lo, hi int) {
		cur := pos[worker*p : (worker+1)*p]
		for i := lo; i < hi; i++ {
			e := edges[i]
			ru, rv := ranks[2*i], ranks[2*i+1]
			out[ru][cur[ru]] = e
			cur[ru]++
			if rv != ru {
				out[rv][cur[rv]] = e
				cur[rv]++
			}
		}
	})
	return out
}
