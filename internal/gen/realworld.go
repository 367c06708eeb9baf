package gen

import (
	"fmt"
	"sort"

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
	Build func(scaleShift int, seed uint64) *graph.Graph
}

// Instances is the catalog, in Table I order. scaleShift shrinks (negative)
// or grows (positive) the default size by powers of two.
var Instances = []Instance{
	{
		Name: "live-journal", Class: "social",
		Notes: "R-MAT scale 13, edge factor 9 (LJ avg degree ≈ 17)",
		Build: func(s int, seed uint64) *graph.Graph {
			cfg := DefaultRMAT(13+s, seed)
			cfg.EdgeFactor = 9
			return RMAT(cfg)
		},
	},
	{
		Name: "orkut", Class: "social",
		Notes: "R-MAT scale 12, edge factor 38 (orkut avg degree ≈ 76)",
		Build: func(s int, seed uint64) *graph.Graph {
			cfg := DefaultRMAT(12+s, seed)
			cfg.EdgeFactor = 38
			return RMAT(cfg)
		},
	},
	{
		Name: "twitter", Class: "social",
		Notes: "R-MAT scale 14, edge factor 28, stronger skew (a=0.65)",
		Build: func(s int, seed uint64) *graph.Graph {
			cfg := DefaultRMAT(14+s, seed)
			cfg.EdgeFactor = 28
			cfg.A, cfg.B, cfg.C, cfg.D = 0.65, 0.15, 0.15, 0.05
			return RMAT(cfg)
		},
	},
	{
		Name: "friendster", Class: "social",
		Notes: "RHG γ=2.8, avg degree 26 (friendster m/n ≈ 26.6)",
		Build: func(s int, seed uint64) *graph.Graph {
			return RHG(RHGConfig{N: 1 << (14 + s), AvgDegree: 26, Gamma: 2.8, Seed: seed})
		},
	},
	{
		Name: "uk-2007-05", Class: "web",
		Notes: "clustered web model: host near-cliques + R-MAT long links, high triangle density",
		Build: func(s int, seed uint64) *graph.Graph {
			return WebGraph(WebConfig{N: 1 << (14 + s), HostSize: 48, IntraP: 0.55, LongFactor: 4, Seed: seed})
		},
	},
	{
		Name: "webbase-2001", Class: "web",
		Notes: "clustered web model, sparser (webbase m/n ≈ 7.2)",
		Build: func(s int, seed uint64) *graph.Graph {
			return WebGraph(WebConfig{N: 1 << (14 + s), HostSize: 24, IntraP: 0.35, LongFactor: 2, Seed: seed})
		},
	},
	{
		Name: "usa", Class: "road",
		Notes: "road model: 2D grid + 5% diagonals (avg degree ≈ 2.4, few triangles)",
		Build: func(s int, seed uint64) *graph.Graph {
			side := 1 << (7 + (s+1)/2) // keep roughly square growth
			return RoadNetwork(side, side, 0.05, seed)
		},
	},
	{
		Name: "europe", Class: "road",
		Notes: "road model, slightly denser diagonals",
		Build: func(s int, seed uint64) *graph.Graph {
			side := 1 << (7 + (s+1)/2)
			return RoadNetwork(side, side, 0.08, seed)
		},
	},
}

// ByInstance returns the stand-in named name.
func ByInstance(name string, scaleShift int, seed uint64) (*graph.Graph, error) {
	for _, inst := range Instances {
		if inst.Name == name {
			return inst.Build(scaleShift, seed), nil
		}
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

// InstanceNames returns the catalog names in Table I order.
func InstanceNames() []string {
	names := make([]string, len(Instances))
	for i, inst := range Instances {
		names[i] = inst.Name
	}
	return names
}

// SortedInstanceNames returns the catalog names sorted alphabetically.
func SortedInstanceNames() []string {
	names := InstanceNames()
	sort.Strings(names)
	return names
}
