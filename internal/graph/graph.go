// Package graph provides undirected graphs in adjacency-array (CSR) form,
// the degree-based total order used by COMPACT-FORWARD style triangle
// counting, and the per-PE local graph view (locals, ghosts, interface
// vertices, cut edges) used by the distributed algorithms.
//
// Vertices are dense integers 0..n-1. Neighborhoods are stored sorted by
// vertex ID so that set intersections can use a merge, exactly as the paper
// assumes.
package graph

import (
	"fmt"
	"runtime"
	"slices"
)

// Vertex is a global vertex identifier. It is an alias (not a defined type)
// so that neighborhood slices can be sent as message payloads of machine
// words without copying.
type Vertex = uint64

// Edge is an undirected edge. Canonical form has U < V.
type Edge struct {
	U, V Vertex
}

// Canon returns e with endpoints ordered so that U < V.
func (e Edge) Canon() Edge {
	if e.U > e.V {
		return Edge{e.V, e.U}
	}
	return e
}

// Graph is an immutable undirected graph in compressed adjacency-array form.
// Every edge {u,v} appears in both Neighbors(u) and Neighbors(v), and each
// neighborhood is sorted strictly ascending by vertex ID, without v itself
// and without IDs ≥ n. FromEdges establishes all of that; a caller of
// FromSortedAdjacency vouches for it. The distributed builders read a PE's
// rows in place and re-check what one PE can see of them (BuildLocalCSR and
// BuildBlockCSR panic on a row that is out of order, holds a self-loop or
// names an ID ≥ n). Symmetry is the one invariant that cannot be checked
// locally — the mirror entry lives in another PE's rows — so an asymmetric
// CSR is counted as given, without an error.
type Graph struct {
	off []int64
	adj []Vertex
}

// NumVertices returns n.
func (g *Graph) NumVertices() int { return len(g.off) - 1 }

// NumEdges returns the number of undirected edges m.
func (g *Graph) NumEdges() int { return len(g.adj) / 2 }

// Degree returns the degree of v.
func (g *Graph) Degree(v Vertex) int { return int(g.off[v+1] - g.off[v]) }

// Neighbors returns the sorted neighborhood of v. The returned slice aliases
// internal storage and must not be modified.
func (g *Graph) Neighbors(v Vertex) []Vertex { return g.adj[g.off[v]:g.off[v+1]] }

// HasEdge reports whether {u,v} is an edge, by binary search in the smaller
// neighborhood.
func (g *Graph) HasEdge(u, v Vertex) bool {
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	_, ok := slices.BinarySearch(g.Neighbors(u), v)
	return ok
}

// ForEachEdge calls fn once per undirected edge with u < v.
func (g *Graph) ForEachEdge(fn func(u, v Vertex)) {
	for u := Vertex(0); u < Vertex(g.NumVertices()); u++ {
		for _, v := range g.Neighbors(u) {
			if v > u {
				fn(u, v)
			}
		}
	}
}

// Edges returns all undirected edges in canonical (u < v) order, the order
// ForEachEdge calls them in, built on runtime.GOMAXPROCS(0) workers: one
// binary search per row finds its entries above u (rows are sorted), a
// prefix sum places the rows, and each row's suffix is written into its
// stretch of the list. Beyond the m-edge list it allocates n+1 row offsets.
func (g *Graph) Edges() []Edge {
	return g.edges(runtime.GOMAXPROCS(0))
}

func (g *Graph) edges(threads int) []Edge {
	n := g.NumVertices()
	pos := make([]int, n+1)
	ParallelFor(threads, n, func(_, lo, hi int) {
		for u := lo; u < hi; u++ {
			nb := g.Neighbors(Vertex(u))
			i, _ := slices.BinarySearch(nb, Vertex(u)+1)
			pos[u+1] = len(nb) - i
		}
	})
	for u := 0; u < n; u++ {
		pos[u+1] += pos[u]
	}
	es := make([]Edge, pos[n])
	ParallelFor(threads, n, func(_, lo, hi int) {
		for u := lo; u < hi; u++ {
			nb := g.Neighbors(Vertex(u))
			row := es[pos[u]:pos[u+1]]
			for i, v := range nb[len(nb)-len(row):] {
				row[i] = Edge{Vertex(u), v}
			}
		}
	})
	return es
}

// FromEdges builds an undirected graph on n vertices from an edge list.
// Self-loops are dropped and duplicate edges are merged; the input slice is
// not modified. Edges referencing vertices >= n cause a panic, since that is
// always a programming error in this codebase.
//
// Each edge {u,v} is scattered as v into u's row and u into v's row, as
// 32-bit IDs: 4 B of scratch per adjacency entry. The scatter counts the
// entries that land below their row's previous entry, and that count picks
// how the rows get sorted:
//   - Rows that arrive out of order (R-MAT's and G(n,m)'s at random, about
//     half their entries below the one before; RHG's 11 %) are sorted by
//     counting passes. Read as buckets, row x lists the owners whose rows
//     hold x, so walking x in ascending order and appending x to each
//     owner's row fills every row in ascending order, duplicates adjacent:
//     one walk counts each row's distinct entries, a second one places them.
//   - Rows that arrive (nearly) sorted, at most 1/32 of the entries below
//     the one before (RGG2D's: none), are sorted one row at a time, spread
//     over runtime.GOMAXPROCS(0) workers; a sorted row is only checked.
//     On RGG2D's rows that reads faster than the counting passes, on RHG's
//     slower.
//
// Either way the adjacency array is allocated once, at its deduplicated
// size. From 2³² vertices on the IDs do not fit the scratch, and the rows
// are scattered, sorted and deduplicated in place at full width instead.
// Every path, at any worker count, builds the same CSR.
func FromEdges(n int, edges []Edge) *Graph {
	return fromEdges(runtime.GOMAXPROCS(0), n, edges, sortAuto)
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

func fromEdges(threads, n int, edges []Edge, how rowSort) *Graph {
	off := make([]int64, n+1)
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		if e.U >= Vertex(n) || e.V >= Vertex(n) {
			panic(fmt.Sprintf("graph: edge (%d,%d) out of range n=%d", e.U, e.V, n))
		}
		off[e.U+1]++
		off[e.V+1]++
	}
	prefixSum(off)
	// pos holds each row's next free slot during the scatter, then the
	// deduplicated offsets: the CSR's own.
	pos := make([]int64, n+1)
	copy(pos, off[:n])
	if how == sortWide || how == sortAuto && uint64(n) >= 1<<32 {
		adj := make([]Vertex, off[n])
		scatterRows(adj, off, pos, edges)
		sortRows(threads, adj, off, pos)
		compactRows(1, adj, off, pos, adj) // in place: one worker
		return &Graph{off: pos, adj: adj[:pos[n]]}
	}
	rows := make([]uint32, off[n])
	below := scatterRows(rows, off, pos, edges)
	if how == sortPerRow || how == sortAuto && below <= off[n]/32 {
		sortRows(threads, rows, off, pos)
		adj := make([]Vertex, pos[n])
		compactRows(threads, rows, off, pos, adj)
		return &Graph{off: pos, adj: adj}
	}
	// last[o] is x+1 for the last bucket x that reached row o.
	last := make([]uint32, n)
	clear(pos)
	for x := 0; x < n; x++ {
		for _, o := range rows[off[x]:off[x+1]] {
			if last[o] != uint32(x+1) {
				last[o] = uint32(x + 1)
				pos[o+1]++
			}
		}
	}
	prefixSum(pos)
	adj := make([]Vertex, pos[n])
	clear(last)
	for x := 0; x < n; x++ {
		for _, o := range rows[off[x]:off[x+1]] {
			if last[o] != uint32(x+1) {
				last[o] = uint32(x + 1)
				adj[pos[o]] = Vertex(x)
				pos[o]++
			}
		}
	}
	// Each cursor stopped at the next row's start: shift them back.
	copy(pos[1:], pos[:n])
	pos[0] = 0
	return &Graph{off: pos, adj: adj}
}

// scatterRows writes v into u's row and u into v's row for every edge {u,v}
// but a self-loop, advancing pos, each row's next free slot. It returns how
// many entries landed below their row's previous entry.
func scatterRows[T uint32 | uint64](rows []T, off, pos []int64, edges []Edge) int64 {
	var below int64
	put := func(o Vertex, x T) {
		p := pos[o]
		if p > off[o] && x < rows[p-1] {
			below++
		}
		rows[p] = x
		pos[o] = p + 1
	}
	for _, e := range edges {
		if e.U != e.V {
			put(e.U, T(e.V))
			put(e.V, T(e.U))
		}
	}
	return below
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

// FromSortedAdjacency builds a graph directly from prebuilt CSR arrays.
// The caller guarantees the invariants of Graph; symmetry above all.
func FromSortedAdjacency(off []int64, adj []Vertex) *Graph {
	return &Graph{off: off, adj: adj}
}

// MaxDegree returns the maximum vertex degree (0 for an empty graph).
func (g *Graph) MaxDegree() int {
	best := 0
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.Degree(Vertex(v)); d > best {
			best = d
		}
	}
	return best
}
