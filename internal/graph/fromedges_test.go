package graph

import (
	"fmt"
	"slices"
	"testing"
)

// sortFromEdges is the comparison-sort builder FromEdges replaced: scatter
// every entry into its row, sort each row, drop the duplicates. FuzzFromEdges
// holds every path of fromEdges against it.
func sortFromEdges(n int, edges []Edge) ([]int64, []Vertex) {
	off := make([]int64, n+1)
	for _, e := range edges {
		if e.U != e.V {
			off[e.U+1]++
			off[e.V+1]++
		}
	}
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	adj := make([]Vertex, off[n])
	pos := slices.Clone(off[:n])
	for _, e := range edges {
		if e.U != e.V {
			adj[pos[e.U]] = e.V
			pos[e.U]++
			adj[pos[e.V]] = e.U
			pos[e.V]++
		}
	}
	w := int64(0)
	newOff := make([]int64, n+1)
	for v := 0; v < n; v++ {
		row := adj[off[v]:off[v+1]]
		slices.Sort(row)
		newOff[v] = w
		for i, x := range row {
			if i == 0 || x != row[i-1] {
				adj[w] = x
				w++
			}
		}
	}
	newOff[n] = w
	return newOff, adj[:w]
}

// FuzzFromEdges builds graphs on n ∈ {0, 1, 2, 64, 3000} vertices from
// fuzzed edge lists (one byte per endpoint, two at n = 3000, where the rows
// span three of the workers' chunks), in the order given, reversed, shuffled, sorted by endpoint,
// with every edge doubled and flipped, and with self-loops spliced in,
// through every row sort (counting passes, per-row sort, full width, and
// the automatic choice) on 1, 2, 3 and 8 workers, the list whole on one
// worker and cut into chunks (empty ones among them) on more. Each must
// equal the sort-based builder and leave its input as it was.
func FuzzFromEdges(f *testing.F) {
	f.Add(uint8(3), []byte{})
	f.Add(uint8(0), []byte{0, 1, 1, 2, 2, 0})
	f.Add(uint8(1), []byte{0, 1, 1, 0, 0, 1, 5, 5})
	f.Add(uint8(3), []byte{0, 63, 63, 0, 10, 20, 20, 10, 10, 20, 7, 7, 1, 2, 3, 4, 5, 6})
	f.Add(uint8(2), []byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0})
	f.Add(uint8(4), []byte{0, 1, 11, 184, 4, 0, 11, 183, 11, 184, 0, 1, 8, 0, 0, 0, 2, 1, 2, 1})
	f.Fuzz(func(t *testing.T, sel uint8, raw []byte) {
		n := []int{0, 1, 2, 64, 3000}[sel%5]
		width := 1
		if n > 256 {
			width = 2
		}
		id := func(b []byte) Vertex {
			x := Vertex(b[0])
			if width == 2 {
				x = x<<8 | Vertex(b[1])
			}
			return x % Vertex(n)
		}
		var edges []Edge
		for i := 0; n > 0 && i+2*width <= len(raw); i += 2 * width {
			edges = append(edges, Edge{id(raw[i:]), id(raw[i+width:])})
		}
		orders := map[string][]Edge{"given": edges}
		rev := slices.Clone(edges)
		slices.Reverse(rev)
		orders["reversed"] = rev
		shuf := slices.Clone(edges)
		for i := len(shuf) - 1; i > 0; i-- {
			j := int(uint64(i) * 0x9E3779B97F4A7C15 >> 32 % uint64(i+1))
			shuf[i], shuf[j] = shuf[j], shuf[i]
		}
		orders["shuffled"] = shuf
		sorted := slices.Clone(edges)
		slices.SortFunc(sorted, func(a, b Edge) int {
			if a.U != b.U {
				return int(a.U) - int(b.U)
			}
			return int(a.V) - int(b.V)
		})
		orders["sorted"] = sorted
		var doubled, looped []Edge
		for i, e := range edges {
			doubled = append(doubled, e, Edge{e.V, e.U})
			looped = append(looped, e, Edge{e.U, e.U}, Edge{Vertex(i % n), Vertex(i % n)})
		}
		orders["doubled"] = doubled
		orders["self-loops"] = looped

		for name, in := range orders {
			wantOff, wantAdj := sortFromEdges(n, in)
			keep := slices.Clone(in)
			for _, how := range []rowSort{sortAuto, sortCounting, sortPerRow, sortWide} {
				for _, threads := range []int{1, 2, 3, 8} {
					g := fromEdges(threads, n, splitEdges(in, threads), how)
					where := fmt.Sprintf("n=%d %s path=%d threads=%d", n, name, how, threads)
					if !slices.Equal(g.off, wantOff) || !slices.Equal(g.adj, wantAdj) {
						t.Fatalf("%s: off %v adj %v, want %v %v", where, g.off, g.adj, wantOff, wantAdj)
					}
					if !slices.Equal(in, keep) {
						t.Fatalf("%s: the input changed", where)
					}
				}
			}
		}
	})
}

// splitEdges cuts edges into k+1 chunks at k uneven points, the first one
// empty, so that FromEdgeChunks' workers' blocks straddle chunk ends; k ≤ 1
// keeps the list whole.
func splitEdges(edges []Edge, k int) [][]Edge {
	if k <= 1 {
		return [][]Edge{edges}
	}
	chunks := [][]Edge{nil}
	for i := 1; i < k; i++ {
		cut := len(edges) * i * i / (k * k)
		chunks = append(chunks, edges[:cut])
		edges = edges[cut:]
	}
	return append(chunks, edges)
}

// TestFromEdgesWorkersOnEveryPath is FuzzFromEdges' check on a list long
// enough that 2, 3 and 8 workers each get their own stretch of edges and
// range of buckets: 20,000 seeded edges on 3,000 vertices, a tenth of them
// self-loops and a tenth repeated flipped, whole and cut into chunks,
// through every row sort. The per-row path also gets the list sorted, its
// rows in order.
func TestFromEdgesWorkersOnEveryPath(t *testing.T) {
	const n = 3000
	x := uint64(7)
	next := func() Vertex {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return Vertex(x % n)
	}
	edges := make([]Edge, 0, 22000)
	for i := 0; i < 20000; i++ {
		e := Edge{next(), next()}
		switch i % 10 {
		case 3:
			e.V = e.U
		case 7:
			edges = append(edges, Edge{e.V, e.U})
		}
		edges = append(edges, e)
	}
	sorted := slices.Clone(edges)
	slices.SortFunc(sorted, func(a, b Edge) int {
		if a.U != b.U {
			return int(a.U) - int(b.U)
		}
		return int(a.V) - int(b.V)
	})
	for name, in := range map[string][]Edge{"random": edges, "sorted": sorted} {
		wantOff, wantAdj := sortFromEdges(n, in)
		for _, how := range []rowSort{sortAuto, sortCounting, sortPerRow, sortWide} {
			for _, threads := range []int{1, 2, 3, 8} {
				for _, chunks := range [][][]Edge{{in}, splitEdges(in, threads+1)} {
					g := fromEdges(threads, n, chunks, how)
					if !slices.Equal(g.off, wantOff) || !slices.Equal(g.adj, wantAdj) {
						t.Fatalf("%s, path %d, %d workers, %d chunks: the CSR differs from the sort-based builder's", name, how, threads, len(chunks))
					}
				}
			}
		}
	}
}
