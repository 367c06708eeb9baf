package graph

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/part"
)

// LocalGraph is one PE's view of a 1D-partitioned graph (Fig. 1 of the
// paper): the PE's own vertices with complete neighborhoods, plus ghost
// vertices — remote endpoints of cut edges — whose visible neighborhoods
// contain only local vertices ("rewired incoming cut edges").
//
// Rows are indexed by a compact local index: rows 0..NLocal-1 are the local
// vertices in ID order (global ID = First + row), rows NLocal.. are ghosts
// sorted ascending by global ID. Adjacency entries are rows (4 bytes each),
// kept in the order of their global IDs: [low ghosts][locals][high ghosts],
// low ghosts being those below First. The view holds no global-ID
// adjacency; one ID per row (GID) maps any entry back, and the oriented
// lists that ship carry their own IDs (LocalOriented.Out).
//
// Every LocalGraph comes out of one builder, buildRows, whose input is the
// PE's row slab — what the paper's algorithms are handed (§III: the 1D-
// partitioned adjacency array), not an edge list. Its front ends differ only
// in where the rows live: BuildLocalCSR reads them in place from the global
// CSR (every one-shot driver), StreamBuilder.Seal from the resident rows of
// a stream (stream.go), BuildLocalPar buckets a scattered edge slice into
// rows first.
type LocalGraph struct {
	Part  *part.Partition
	Rank  int
	First Vertex // first local global ID
	Last  Vertex // one past the last local global ID

	nLocal int
	nLow   int        // ghosts below First: rows [nLocal, nLocal+nLow)
	gid    []Vertex   // global ID per row: First+r for locals, then the ghosts ascending
	ghosts ghostIndex // ghost ID -> i, the inverse of gid[nLocal:]
	off    []int64    // CSR offsets, len = rows+1
	adjRow []uint32   // neighbor rows, each row in global-ID order
	deg    []int      // global degree per row; ghost entries -1 until set
}

// BuildLocal is BuildLocalPar on one thread.
func BuildLocal(pt *part.Partition, rank int, edges []Edge) *LocalGraph {
	return BuildLocalPar(pt, rank, edges, 1)
}

// BuildLocalPar is the from-edges front end of buildRows, for callers that
// hold a PE's scattered edge slice rather than its CSR rows (tests and the
// cmd/bench probes; the drivers use BuildLocalCSR). The edges incident to
// rank's vertices are bucketed into one array by a count and a placement
// pass, every row is sorted and deduplicated in place (threads workers, rows
// are disjoint), and the resulting slab is built like any other. Self loops
// are dropped, duplicates merged; an edge with no endpoint on rank panics.
func BuildLocalPar(pt *part.Partition, rank int, edges []Edge, threads int) *LocalGraph {
	first, last := pt.Range(rank)
	nl := int(last - first)
	off := make([]int64, nl+1)
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		du, dv := e.U-first, e.V-first // < nl iff local (IDs below first wrap)
		if du >= Vertex(nl) && dv >= Vertex(nl) {
			panic(fmt.Sprintf("graph: edge (%d,%d) has no endpoint on PE %d [%d,%d)", e.U, e.V, rank, first, last))
		}
		if du < Vertex(nl) {
			off[du+1]++
		}
		if dv < Vertex(nl) {
			off[dv+1]++
		}
	}
	for r := 0; r < nl; r++ {
		off[r+1] += off[r]
	}
	adj := make([]Vertex, off[nl])
	end := slices.Clone(off[:nl]) // per row: write cursor, then end of the unique prefix
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		if du := e.U - first; du < Vertex(nl) {
			adj[end[du]] = e.V
			end[du]++
		}
		if dv := e.V - first; dv < Vertex(nl) {
			adj[end[dv]] = e.U
			end[dv]++
		}
	}
	parallelFor(threads, nl, slabRowChunk, func(_, lo, hi int) {
		for r := lo; r < hi; r++ {
			end[r] = off[r] + int64(len(sortedDedup(adj[off[r]:end[r]])))
		}
	})
	return buildRows(pt, rank, func(r int) []Vertex { return adj[off[r]:end[r]] }, nil, threads)
}

// BuildLocalCSR constructs rank's local view straight from its rows of the
// global CSR: the rows are read in place, never copied into an edge list.
func BuildLocalCSR(pt *part.Partition, rank int, g *Graph, threads int) *LocalGraph {
	first, _ := pt.Range(rank)
	return buildRows(pt, rank, func(r int) []Vertex { return g.Neighbors(first + Vertex(r)) }, nil, threads)
}

// MaxRows is the most rows one PE's row space holds: the local vertices and
// ghosts of a 1D view, or the vertices of a 2D band. Rows are int32 in the
// API and 4-byte entries in every row list, block and mark.
const MaxRows = math.MaxInt32

// checkRowSpace panics unless rows fit a row space (MaxRows).
func checkRowSpace(rank int, rows uint64) {
	if rows > MaxRows {
		panic(fmt.Sprintf("graph: PE %d holds %d rows, more than the %d a row space indexes", rank, rows, MaxRows))
	}
}

// slabRowChunk is the fewest rows worth a builder worker of their own.
const slabRowChunk = 64

// slabWorker is one worker's share of a row-slab build: the ghosts its block
// of rows met, in first-appearance order, and per ghost what the fill pass
// needs.
type slabWorker struct {
	cut     int64      // cut entries in the block
	cutRows []int32    // the rows of the block that hold them, ascending
	set     ghostIndex // provisional ordinal <-> ghost ID
	cnt     []int32    // per provisional ordinal: cut entries naming it
	final   []uint32   // per provisional ordinal: the ghost's row
	pos     []int64    // per provisional ordinal: write cursor into that row
}

// checkRow panics unless nb is a well-formed CSR row of vertex v on n
// vertices: strictly ascending, without v itself, every ID below n.
func checkRow(nb []Vertex, v, n Vertex, rank int) {
	for k, x := range nb {
		if x == v || (k > 0 && x <= nb[k-1]) {
			panic(fmt.Sprintf("graph: malformed adjacency row of vertex %d on PE %d: entry %d (%d) is a self-loop or not ascending", v, rank, k, x))
		}
	}
	if k := len(nb); k > 0 && nb[k-1] >= n {
		panic(fmt.Sprintf("graph: malformed adjacency row of vertex %d on PE %d: neighbor %d out of range n=%d", v, rank, nb[k-1], n))
	}
}

// buildRows is the one LocalGraph builder. Its input is a row slab: the
// sorted, duplicate-free global-ID rows of rank's vertices, row(r) being the
// neighborhood of vertex First+r. release, when set, is told once row r
// will not be read again. Workers own static contiguous blocks of rows; the
// result does not depend on how many there are. A row is read in full once
// (twice if it reaches past [First, Last)) and never copied; what the view
// keeps is row indices and one ID per row. Four passes:
//
//  1. size every row and count the cut entries, which fixes the local half
//     of the CSR and the length of the whole; a row whose first and last
//     entries lie in [First, Last) holds no cut entry and is not scanned;
//  2. check each row (checkRow, which panics on a malformed one before its
//     cut count is used) and translate every entry to its row, once:
//     locals by subtraction, cut entries through the worker's ghost set,
//     which hands out provisional ordinals in first-appearance order and
//     counts each ghost's incidence; row r is released here, after its last
//     read. The set takes the dense layout of ghostIndex, a table indexed
//     by global ID (one load per cut entry), when workers·n ≤ cut entries,
//     so that its tables cost at most 4 bytes per cut entry; otherwise it
//     is a growable hash;
//  3. list the distinct ghosts in ID order — dense: one scan of the tables,
//     which also maps every provisional ordinal to its ghost row and
//     rewrites the first table into the view's index; hash: sort them, build
//     the final index over them and map every provisional ordinal with one
//     probe per ghost per worker — and lay out the per-row ID table (locals,
//     then the ghosts). A PE whose locals and ghosts together pass MaxRows
//     panics here, naming the PE, before a row is used. Incidences size the
//     ghost rows, and worker-major cursors into them keep the fill
//     deterministic;
//  4. fill: in the rows that hold cut entries, rewrite provisional to final
//     and transpose every cut entry into its ghost row. Rows are visited
//     ascending, so ghost rows come out in ID order.
func buildRows(pt *part.Partition, rank int, row func(r int) []Vertex, release func(r int), threads int) *LocalGraph {
	first, last := pt.Range(rank)
	checkRowSpace(rank, last-first)
	nl := int(last - first)
	l := &LocalGraph{Part: pt, Rank: rank, First: first, Last: last, nLocal: nl}
	w := workersFor(threads, nl, slabRowChunk)
	ws := make([]slabWorker, w)

	localOff := make([]int64, nl+1)
	parallelBlocks(w, nl, func(worker, lo, hi int) {
		cut := int64(0)
		for r := lo; r < hi; r++ {
			nb := row(r)
			if k := len(nb); k > 0 && (nb[0] < first || nb[k-1] >= last) {
				for _, x := range nb {
					if x-first >= Vertex(nl) {
						cut++
					}
				}
			}
			localOff[r+1] = int64(len(nb))
		}
		ws[worker].cut = cut
	})
	for r := 0; r < nl; r++ {
		localOff[r+1] += localOff[r]
	}
	total := localOff[nl] // every local entry, and one ghost-row entry per cut entry
	for i := range ws {
		total += ws[i].cut
	}

	// The layout of the ghost index (ghostIndex): dense, one int32 per
	// global ID and worker, when the w workers' tables cost at most 4 bytes
	// per cut entry — no more than the hash sets and final index they
	// replace — and the hash otherwise.
	n := pt.N()
	dense := uint64(w)*n <= uint64(total-localOff[nl])

	adjRow := make([]uint32, total)
	translate := func(worker, lo, hi int) {
		s := &ws[worker]
		s.set = newGhostIndex(nil)
		for r := lo; r < hi; r++ {
			nb := row(r)
			checkRow(nb, first+Vertex(r), n, rank)
			dst := adjRow[localOff[r]:localOff[r+1]]
			cut := false
			for k, x := range nb {
				if d := x - first; d < Vertex(nl) {
					dst[k] = uint32(d)
					continue
				}
				o := s.set.insert(x)
				if o == len(s.cnt) {
					s.cnt = append(s.cnt, 0)
				}
				s.cnt[o]++
				dst[k], cut = uint32(nl+o), true
			}
			if cut {
				s.cutRows = append(s.cutRows, int32(r))
			}
			if release != nil {
				release(r)
			}
		}
	}
	if dense {
		// The same pass with the table in place of insert: a new ghost
		// takes the next ordinal, len(cnt). A closure of its own, not a
		// branch inside the hash pass: with the branch, RGG2D (which stays
		// on the hash) counted slower.
		translate = func(worker, lo, hi int) {
			s := &ws[worker]
			s.set = ghostIndex{ord: make([]int32, n), dense: true}
			tab := s.set.ord
			for r := lo; r < hi; r++ {
				nb := row(r)
				checkRow(nb, first+Vertex(r), n, rank)
				dst := adjRow[localOff[r]:localOff[r+1]]
				cut := false
				for k, x := range nb {
					if d := x - first; d < Vertex(nl) {
						dst[k] = uint32(d)
						continue
					}
					o := int(tab[x]) - 1
					if o < 0 {
						o = len(s.cnt)
						tab[x] = int32(o + 1)
						s.cnt = append(s.cnt, 0)
					}
					s.cnt[o]++
					dst[k], cut = uint32(nl+o), true
				}
				if cut {
					s.cutRows = append(s.cutRows, int32(r))
				}
				if release != nil {
					release(r)
				}
			}
		}
	}
	parallelBlocks(w, nl, translate)

	found := 0 // distinct per worker, so an upper bound on the ghosts
	for i := range ws {
		found += len(ws[i].cnt)
		ws[i].final = make([]uint32, len(ws[i].cnt))
	}
	gid := make([]Vertex, nl, nl+found)
	for r := range gid {
		gid[r] = first + Vertex(r)
	}
	if dense {
		gid = scanDenseGhosts(ws, gid)
	} else {
		for i := range ws {
			gid = append(gid, ws[i].set.ids...)
		}
		slices.Sort(gid[nl:])
		gid = gid[:nl+len(slices.Compact(gid[nl:]))]
	}
	checkRowSpace(rank, uint64(len(gid)))
	l.gid = gid
	l.nLow, _ = slices.BinarySearch(gid[nl:], first)
	if dense {
		l.ghosts = ghostIndex{ids: gid[nl:], ord: ws[0].set.ord, dense: true}
	} else {
		l.ghosts = newGhostIndex(gid[nl:])
		for i := range ws {
			s := &ws[i]
			for o, x := range s.set.ids {
				g, _ := l.ghosts.find(x)
				s.final[o] = uint32(nl + g)
			}
		}
	}
	rows := len(gid)
	off := make([]int64, rows+1)
	copy(off, localOff)
	for i := range ws {
		s := &ws[i]
		for o, f := range s.final {
			off[f+1] += int64(s.cnt[o])
		}
	}
	for r := nl; r < rows; r++ {
		off[r+1] += off[r]
	}
	next := slices.Clone(off[nl:rows]) // per ghost row: first slot no earlier worker fills
	for i := range ws {
		s := &ws[i]
		s.pos = make([]int64, len(s.cnt))
		for o, f := range s.final {
			s.pos[o] = next[int(f)-nl]
			next[int(f)-nl] += int64(s.cnt[o])
		}
	}

	parallelBlocks(w, nl, func(worker, _, _ int) {
		s := &ws[worker]
		for _, r := range s.cutRows {
			tr := adjRow[off[r]:off[r+1]]
			for k, t := range tr {
				if o := int(t) - nl; o >= 0 {
					tr[k] = s.final[o]
					p := s.pos[o]
					s.pos[o] = p + 1
					adjRow[p] = uint32(r)
				}
			}
		}
	})
	l.off, l.adjRow = off, adjRow

	// Local degrees are exact (1D partition: every incident edge is visible);
	// ghost degrees are unknown until the degree exchange.
	l.deg = make([]int, rows)
	for r := range l.deg {
		l.deg[r] = -1
		if r < nl {
			l.deg[r] = int(off[r+1] - off[r])
		}
	}
	return l
}

// scanDenseGhosts is pass 3 of a dense build (buildRows): one scan of the
// workers' tables in ID order appends the ghosts to gid, sets every
// worker's provisional → final row map, and rewrites the first worker's
// table to final ordinals, so that it can serve as the view's ghost index.
func scanDenseGhosts(ws []slabWorker, gid []Vertex) []Vertex {
	nl := len(gid)
	tab := ws[0].set.ord
	var others []*slabWorker // the other workers that met a ghost
	for i := 1; i < len(ws); i++ {
		if len(ws[i].cnt) > 0 {
			others = append(others, &ws[i])
		}
	}
	for x, o := range tab {
		hit := o != 0
		if hit {
			ws[0].final[o-1] = uint32(len(gid))
		}
		for _, s := range others {
			if o := s.set.ord[x]; o != 0 {
				s.final[o-1] = uint32(len(gid))
				hit = true
			}
		}
		if hit {
			tab[x] = int32(len(gid) - nl + 1)
			gid = append(gid, Vertex(x))
		}
	}
	return gid
}

func (l *LocalGraph) isLocal(v Vertex) bool { return v >= l.First && v < l.Last }

// RowTranslator is reusable scratch for TranslateRows and TranslateRowSet;
// the zero value is ready to use. It grows to the largest list translated
// through it and then allocates nothing.
type RowTranslator struct {
	loc []uint32
	gho []uint32
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
func (l *LocalGraph) TranslateRows(tr *RowTranslator, list []Vertex) (rows []uint32, nLocal int) {
	loc, gho := tr.loc[:0], tr.gho[:0]
	first := l.First
	for _, x := range list {
		if l.isLocal(x) {
			loc = append(loc, uint32(x-first))
			continue
		}
		if g, ok := l.ghosts.find(x); ok {
			gho = append(gho, uint32(l.nLocal+g))
		}
	}
	nLocal = len(loc)
	loc = append(loc, gho...)
	tr.loc, tr.gho = loc, gho
	return loc, nLocal
}

// TranslateRowSet is TranslateRows for a caller that uses the rows as a
// set (a Mark's stamp): one pass writes every entry's row in list order,
// with no split into locals and ghosts and no copy, so a sorted list comes
// back as [low ghosts][locals][high ghosts], not ascending. Entries that
// are no row here are dropped. The returned slice aliases tr's scratch and
// is valid until the next call.
func (l *LocalGraph) TranslateRowSet(tr *RowTranslator, list []Vertex) []uint32 {
	out := tr.loc
	if cap(out) < len(list) {
		out = make([]uint32, len(list))
	}
	out = out[:len(list)]
	tr.loc = out
	first, nl, k := l.First, Vertex(l.nLocal), 0
	if tab := l.ghosts.ord; l.ghosts.dense {
		for _, x := range list {
			if d := x - first; d < nl {
				out[k] = uint32(d)
				k++
			} else if x < Vertex(len(tab)) && tab[x] != 0 {
				out[k] = uint32(nl) + uint32(tab[x]-1)
				k++
			}
		}
	} else {
		for _, x := range list {
			if d := x - first; d < nl {
				out[k] = uint32(d)
				k++
			} else if g, ok := l.ghosts.find(x); ok {
				out[k] = uint32(l.nLocal + g)
				k++
			}
		}
	}
	return out[:k]
}

// IsLocal reports whether v is owned by this PE.
func (l *LocalGraph) IsLocal(v Vertex) bool { return l.isLocal(v) }

// NLocal returns the number of local vertices.
func (l *LocalGraph) NLocal() int { return l.nLocal }

// NGhost returns the number of ghost vertices.
func (l *LocalGraph) NGhost() int { return len(l.gid) - l.nLocal }

// Rows returns the total number of rows (locals + ghosts).
func (l *LocalGraph) Rows() int { return len(l.gid) }

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
func (l *LocalGraph) GID(row int32) Vertex { return l.gid[row] }

// Ghosts returns the global IDs of all ghost vertices, ascending: the ghost
// rows' part of the per-row ID table. Aliases internal storage.
func (l *LocalGraph) Ghosts() []Vertex { return l.gid[l.nLocal:] }

// RowNeighborRows returns the visible neighborhood of a row as row indices,
// ordered by global ID, not by row: [low ghosts][locals][high ghosts]. For
// ghost rows it holds only locals. GID maps an entry to its ID.
func (l *LocalGraph) RowNeighborRows(row int32) []uint32 { return l.adjRow[l.off[row]:l.off[row+1]] }

// Degree returns the global degree of a row; -1 for ghosts before the
// ghost-degree exchange has run.
func (l *LocalGraph) Degree(row int32) int { return l.deg[row] }

// SetGhostDegree records the exchanged global degree of a ghost row.
func (l *LocalGraph) SetGhostDegree(row int32, d int) { l.deg[row] = d }

// LocalEdges returns the number of visible adjacency entries |E_i| (each
// local-local edge counted twice, cut edges once per side plus once in the
// ghost row). This is the quantity the buffering threshold δ = O(|E_i|) is
// tied to.
func (l *LocalGraph) LocalEdges() int { return len(l.adjRow) }

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
