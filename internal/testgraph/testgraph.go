// Package testgraph is the shared test-fixture catalog: a set of named
// graphs spanning every structural regime the triangle counting algorithms
// care about (dense cliques, triangle-free bipartite, windmills, planar-ish
// grids, power-law R-MAT/RHG, geometric RGG, road and web stand-ins), each
// with its exact triangle count precomputed. The graph, gen, and core test
// suites all draw from this one source, so a generator change that shifts a
// fixture's structure fails loudly in exactly one place.
package testgraph

import (
	"fmt"

	"repro/internal/gen"
	"repro/internal/graph"
)

// Graph is one named fixture instance.
type Graph struct {
	Name string
	// Triangles is the exact triangle count, precomputed by brute-force
	// enumeration (and closed forms where they exist: K12 = C(12,3),
	// cliques = 6·C(7,3), trigrid = 2·(w−1)·(h−1), friendship = k).
	Triangles uint64
	build     func() *graph.Graph
}

// Build constructs a fresh copy of the fixture graph.
func (g Graph) Build() *graph.Graph { return g.build() }

// All lists every fixture. Seeds and sizes are part of the fixture identity:
// changing them invalidates the Triangles column (the package self-test
// recomputes it by brute force).
var All = []Graph{
	{Name: "K12", Triangles: 220, build: func() *graph.Graph { return gen.Complete(12) }},
	{Name: "bipartite", Triangles: 0, build: func() *graph.Graph { return gen.CompleteBipartite(7, 9) }},
	{Name: "friendship", Triangles: 9, build: func() *graph.Graph { return gen.Friendship(9) }},
	{Name: "cliques", Triangles: 210, build: func() *graph.Graph { return gen.CliqueChain(6, 7) }},
	{Name: "trigrid", Triangles: 96, build: func() *graph.Graph { return gen.TriangularGrid(9, 7) }},
	{Name: "gnm", Triangles: 686, build: func() *graph.Graph { return gen.GNM(200, 1600, 7) }},
	{Name: "rmat", Triangles: 10200, build: func() *graph.Graph { return gen.RMAT(gen.DefaultRMAT(8, 11)) }},
	{Name: "rgg", Triangles: 6310, build: func() *graph.Graph { return gen.RGG2D(300, 8, 13) }},
	{Name: "rhg", Triangles: 4461, build: func() *graph.Graph {
		return gen.RHG(gen.RHGConfig{N: 300, AvgDegree: 12, Gamma: 2.8, Seed: 17})
	}},
	{Name: "road", Triangles: 108, build: func() *graph.Graph { return gen.RoadNetwork(16, 16, 0.2, 19) }},
	{Name: "web", Triangles: 1483, build: func() *graph.Graph {
		return gen.WebGraph(gen.WebConfig{N: 256, HostSize: 16, IntraP: 0.5, LongFactor: 3, Seed: 23})
	}},
	{Name: "sparse", Triangles: 0, build: func() *graph.Graph { return gen.GNM(100, 50, 29) }},
}

// ByName returns the named fixture, or ok=false.
func ByName(name string) (Graph, bool) {
	for _, g := range All {
		if g.Name == name {
			return g, true
		}
	}
	return Graph{}, false
}

// Input is a generated graph of a given size, with no precomputed count.
type Input struct {
	Name  string
	Build func() *graph.Graph
}

// Sized lists one graph per generator family on n vertices or more (R-MAT
// rounds n up to a power of two): gnm, rmat, rgg2d and rhg at edge factor
// 16, web and road. At n ≥ 4096 every one spans several of
// graph.ParallelFor's 1024-vertex chunks, so a pass over its vertices runs
// on concurrent workers; a graph of one chunk runs inline, and -race then
// sees nothing.
func Sized(n int) []Input {
	in := make([]Input, 0, 6)
	for _, fam := range []string{"gnm", "rmat", "rgg2d", "rhg"} {
		in = append(in, family(fam, n))
	}
	side := 1
	for side*side < n {
		side++
	}
	return append(in,
		Input{fmt.Sprintf("web/n=%d", n), func() *graph.Graph {
			return gen.WebGraph(gen.WebConfig{N: n, HostSize: 32, IntraP: 0.4, LongFactor: 3, Seed: 42})
		}},
		Input{fmt.Sprintf("road/n=%d", side*side), func() *graph.Graph { return gen.RoadNetwork(side, side, 0.3, 42) }})
}

// Bench lists the graphs of the benchmark's rows, at their sizes (seed 42):
// R-MAT 2¹⁶, RGG2D 2¹⁷, RHG 2¹⁷ and G(n,m) 2¹⁵, all at edge factor 16.
var Bench = []Input{family("rmat", 1<<16), family("rgg2d", 1<<17), family("rhg", 1<<17), family("gnm", 1<<15)}

func family(fam string, n int) Input {
	return Input{fmt.Sprintf("%s/n=%d", fam, n), func() *graph.Graph {
		g, err := gen.ByFamily(fam, n, 16, 42)
		if err != nil {
			panic(err)
		}
		return g
	}}
}

// Map builds every fixture keyed by name (the shape the core cross-
// validation matrix iterates over).
func Map() map[string]*graph.Graph {
	m := make(map[string]*graph.Graph, len(All))
	for _, g := range All {
		m[g.Name] = g.Build()
	}
	return m
}

// BruteForceCount counts triangles by testing all C(n,3) vertex triples
// against the adjacency structure — O(n³), independent of every production
// counting path, and therefore the arbiter the fixtures and the generator
// golden tests are checked against. Only for small test instances.
func BruteForceCount(g *graph.Graph) uint64 {
	n := graph.Vertex(g.NumVertices())
	var count uint64
	for v := graph.Vertex(0); v < n; v++ {
		for u := v + 1; u < n; u++ {
			if !g.HasEdge(v, u) {
				continue
			}
			for w := u + 1; w < n; w++ {
				if g.HasEdge(v, w) && g.HasEdge(u, w) {
					count++
				}
			}
		}
	}
	return count
}

// Closed-form graphs that only tests build. The gen package holds the ones
// the fixtures above are made of.

// Cycle returns the cycle C_n (one triangle iff n == 3).
func Cycle(n int) *graph.Graph {
	var edges []graph.Edge
	for u := 0; u < n; u++ {
		edges = append(edges, graph.Edge{U: uint64(u), V: uint64((u + 1) % n)})
	}
	return graph.FromEdges(n, edges)
}

// Path returns the path P_n, triangle-free.
func Path(n int) *graph.Graph {
	var edges []graph.Edge
	for u := 0; u+1 < n; u++ {
		edges = append(edges, graph.Edge{U: uint64(u), V: uint64(u + 1)})
	}
	return graph.FromEdges(n, edges)
}

// Star returns the star S_n (hub 0, n leaves), triangle-free.
func Star(n int) *graph.Graph {
	var edges []graph.Edge
	for v := 1; v <= n; v++ {
		edges = append(edges, graph.Edge{U: 0, V: uint64(v)})
	}
	return graph.FromEdges(n+1, edges)
}

// Wheel returns the wheel W_n: hub 0 plus a rim cycle of n vertices. For
// n > 3 it has exactly n triangles; for n == 3 it is K_4 with 4 triangles.
func Wheel(n int) *graph.Graph {
	var edges []graph.Edge
	for i := 0; i < n; i++ {
		edges = append(edges, graph.Edge{U: 0, V: uint64(1 + i)})
		edges = append(edges, graph.Edge{U: uint64(1 + i), V: uint64(1 + (i+1)%n)})
	}
	return graph.FromEdges(n+1, edges)
}

// Petersen returns the Petersen graph (girth 5, hence triangle-free).
func Petersen() *graph.Graph {
	edges := []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 0}, // outer 5-cycle
		{U: 5, V: 7}, {U: 7, V: 9}, {U: 9, V: 6}, {U: 6, V: 8}, {U: 8, V: 5}, // inner pentagram
		{U: 0, V: 5}, {U: 1, V: 6}, {U: 2, V: 7}, {U: 3, V: 8}, {U: 4, V: 9}, // spokes
	}
	return graph.FromEdges(10, edges)
}
