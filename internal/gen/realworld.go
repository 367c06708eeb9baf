package gen

import (
	"fmt"

	"repro/internal/graph"
)

// Stand-ins for the paper's real-world instances (Table I). The original
// graphs are up to 3.3 billion edges; a single-box reproduction cannot load
// them, so each instance is replaced by a deterministic generator from the
// same structural class at a reduced scale. What the evaluation actually
// exercises — degree skew, locality/cut structure, wedge-to-edge ratio — is
// preserved by the model choice.
//
//	live-journal, orkut, twitter  -> R-MAT (skewed social networks)
//	friendster                    -> RHG (milder skew, community structure)
//	uk-2007-05, webbase-2001      -> clustered web model (host cliques + R-MAT long links)
//	usa, europe                   -> road model (grid + sparse diagonals)

// Instance describes one stand-in instance.
type Instance struct {
	Name  string
	Class string // social | web | road
	Notes string
	// logN is the size exponent at scaleShift 0: the stand-in has about
	// 2^logN vertices, and build(logN+scaleShift, seed) about
	// 2^(logN+scaleShift).
	logN  int
	build func(logN int, seed uint64) *graph.Graph
}

// The size exponents logN+scaleShift that ByInstance builds. Below 0 the
// generators' shifts go negative; above 30 a stand-in outgrows any single
// machine long before its sizes overflow.
const (
	minLogN = 0
	maxLogN = 30
)

// Instances is the catalog, in Table I order. A scaleShift shrinks
// (negative) or grows (positive) the default size by powers of two.
var Instances = []Instance{
	{
		Name: "live-journal", Class: "social", logN: 13,
		Notes: "R-MAT scale 13, edge factor 9 (LJ avg degree ≈ 17)",
		build: func(e int, seed uint64) *graph.Graph {
			cfg := DefaultRMAT(e, seed)
			cfg.EdgeFactor = 9
			return RMAT(cfg)
		},
	},
	{
		Name: "orkut", Class: "social", logN: 12,
		Notes: "R-MAT scale 12, edge factor 38 (orkut avg degree ≈ 76)",
		build: func(e int, seed uint64) *graph.Graph {
			cfg := DefaultRMAT(e, seed)
			cfg.EdgeFactor = 38
			return RMAT(cfg)
		},
	},
	{
		Name: "twitter", Class: "social", logN: 14,
		Notes: "R-MAT scale 14, edge factor 28, stronger skew (a=0.65)",
		build: func(e int, seed uint64) *graph.Graph {
			cfg := DefaultRMAT(e, seed)
			cfg.EdgeFactor = 28
			cfg.A, cfg.B, cfg.C, cfg.D = 0.65, 0.15, 0.15, 0.05
			return RMAT(cfg)
		},
	},
	{
		Name: "friendster", Class: "social", logN: 14,
		Notes: "RHG γ=2.8, avg degree 26 (friendster m/n ≈ 26.6)",
		build: func(e int, seed uint64) *graph.Graph {
			return RHG(RHGConfig{N: 1 << e, AvgDegree: 26, Gamma: 2.8, Seed: seed})
		},
	},
	{
		Name: "uk-2007-05", Class: "web", logN: 14,
		Notes: "clustered web model: host near-cliques + R-MAT long links, high triangle density",
		build: func(e int, seed uint64) *graph.Graph {
			return WebGraph(WebConfig{N: 1 << e, HostSize: 48, IntraP: 0.55, LongFactor: 4, Seed: seed})
		},
	},
	{
		Name: "webbase-2001", Class: "web", logN: 14,
		Notes: "clustered web model, sparser (webbase m/n ≈ 7.2)",
		build: func(e int, seed uint64) *graph.Graph {
			return WebGraph(WebConfig{N: 1 << e, HostSize: 24, IntraP: 0.35, LongFactor: 2, Seed: seed})
		},
	},
	{
		Name: "usa", Class: "road", logN: 14,
		Notes: "road model: 2D grid + 5% diagonals (avg degree ≈ 2.4, few triangles)",
		build: roadBuild(0.05),
	},
	{
		Name: "europe", Class: "road", logN: 14,
		Notes: "road model, slightly denser diagonals",
		build: roadBuild(0.08),
	},
}

// roadBuild is the road stand-in with diagonal probability diagP: a square
// grid of about 2^e vertices. Its side is 2^(7+(e−13)/2) under Go's
// truncating division, so e = 14 is the 128×128 default.
func roadBuild(diagP float64) func(e int, seed uint64) *graph.Graph {
	return func(e int, seed uint64) *graph.Graph {
		side := 1 << (7 + (e-13)/2)
		return RoadNetwork(side, side, diagP, seed)
	}
}

// ByInstance returns the stand-in named name, shifted by scaleShift. A
// shift that takes the stand-in outside 2^0..2^30 vertices is an error.
func ByInstance(name string, scaleShift int, seed uint64) (*graph.Graph, error) {
	for _, inst := range Instances {
		if inst.Name != name {
			continue
		}
		e := inst.logN + scaleShift
		if e < minLogN || e > maxLogN {
			return nil, fmt.Errorf("gen: %s has 2^%d vertices at scale 0; scale %d puts it at 2^%d, outside 2^%d..2^%d (scale %d..%d)",
				name, inst.logN, scaleShift, e, minLogN, maxLogN, minLogN-inst.logN, maxLogN-inst.logN)
		}
		return inst.build(e, seed), nil
	}
	return nil, fmt.Errorf("gen: unknown instance %q", name)
}

// WebConfig parameterizes the clustered web model: vertices are grouped into
// "hosts"; pages within a host link densely (near-cliques, the source of the
// enormous triangle counts of crawl graphs), and each page gets a few
// R-MAT-skewed long-distance links.
type WebConfig struct {
	N          int
	HostSize   int
	IntraP     float64 // intra-host edge probability
	LongFactor int     // long-range edges per vertex
	Seed       uint64
}

// WebGraph builds the clustered web stand-in.
func WebGraph(cfg WebConfig) *graph.Graph {
	rng := NewRNG(cfg.Seed)
	var edges []graph.Edge
	// Host near-cliques over contiguous ID ranges (hosts are crawled
	// contiguously, which is exactly why web graphs have ID locality).
	for base := 0; base < cfg.N; base += cfg.HostSize {
		end := base + cfg.HostSize
		if end > cfg.N {
			end = cfg.N
		}
		for u := base; u < end; u++ {
			for v := u + 1; v < end; v++ {
				if rng.Float64() < cfg.IntraP {
					edges = append(edges, graph.Edge{U: uint64(u), V: uint64(v)})
				}
			}
		}
	}
	// Long links: preferential-attachment-flavored via squared-uniform target
	// sampling (biases toward low IDs, i.e. "old" popular hosts).
	for u := 0; u < cfg.N; u++ {
		for k := 0; k < cfg.LongFactor; k++ {
			t := rng.Float64()
			v := int(t * t * float64(cfg.N))
			if v >= cfg.N {
				v = cfg.N - 1
			}
			if v != u {
				edges = append(edges, graph.Edge{U: uint64(u), V: uint64(v)})
			}
		}
	}
	return graph.FromEdges(cfg.N, edges)
}

// RoadNetwork builds a w×h grid with a random diagonal added in each cell
// with probability diagP — low uniform degree and very few triangles, the
// profile of the DIMACS usa/europe road networks.
func RoadNetwork(w, h int, diagP float64, seed uint64) *graph.Graph {
	g := Grid2D(w, h)
	edges := g.Edges()
	rng := NewRNG(seed)
	id := func(x, y int) uint64 { return uint64(y*w + x) }
	for y := 0; y+1 < h; y++ {
		for x := 0; x+1 < w; x++ {
			if rng.Float64() < diagP {
				if rng.Next()&1 == 0 {
					edges = append(edges, graph.Edge{U: id(x, y), V: id(x+1, y+1)})
				} else {
					edges = append(edges, graph.Edge{U: id(x+1, y), V: id(x, y+1)})
				}
			}
		}
	}
	return graph.FromEdges(w*h, edges)
}
