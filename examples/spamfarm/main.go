// Spam-farm detection via the local clustering coefficient distribution —
// the application of Becchetti et al. that motivates per-vertex triangle
// counting in the paper's introduction.
//
// We build a web-like host-clustered graph, plant a "link farm" (a dense
// clique of spam pages that all link to a boosted target page), compute
// exact LCCs distributedly with CETRIC, and flag pages whose LCC is
// anomalously high for their degree. Link-farm members sit in near-cliques,
// so their LCC stays close to 1 even at high degree — honest pages of
// comparable degree have far lower LCC.
package main

import (
	"fmt"
	"log"
	"sort"

	tricount "repro"
	"repro/internal/gen"
	"repro/internal/graph"
)

const (
	nPages   = 1 << 13
	farmSize = 60
)

func main() {
	// Honest web: host near-cliques + long links.
	base := gen.WebGraph(gen.WebConfig{N: nPages, HostSize: 24, IntraP: 0.3, LongFactor: 3, Seed: 7})
	edges := base.Edges()

	// Plant the farm: the last farmSize pages form a clique and all point at
	// a target page they try to boost.
	farm := make([]graph.Vertex, farmSize)
	for i := range farm {
		farm[i] = graph.Vertex(nPages - farmSize + i)
	}
	target := graph.Vertex(nPages - farmSize - 1)
	for i, u := range farm {
		for _, v := range farm[i+1:] {
			edges = append(edges, graph.Edge{U: u, V: v})
		}
		edges = append(edges, graph.Edge{U: u, V: target})
	}
	g := graph.FromEdges(nPages, edges)
	fmt.Printf("web graph: %d pages, %d links (farm of %d planted)\n",
		g.NumVertices(), g.NumEdges(), farmSize)

	// Distributed exact LCC with CETRIC2 (indirect communication).
	lcc, res, err := tricount.LCC(g, tricount.AlgoCetric, tricount.Options{P: 16, Indirect: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("counted %d triangles on 16 PEs in %v\n", res.Count, res.Wall.Round(1000))

	// Flag: high degree AND high LCC. Honest hubs have low LCC; honest
	// near-clique members have low degree (host size 24).
	type suspect struct {
		page  graph.Vertex
		deg   int
		lcc   float64
		score float64
	}
	var suspects []suspect
	for v := 0; v < g.NumVertices(); v++ {
		d := g.Degree(graph.Vertex(v))
		if d >= 40 && lcc[v] > 0.5 {
			suspects = append(suspects, suspect{graph.Vertex(v), d, lcc[v], float64(d) * lcc[v]})
		}
	}
	sort.Slice(suspects, func(i, j int) bool { return suspects[i].score > suspects[j].score })

	farmSet := make(map[graph.Vertex]bool, farmSize)
	for _, u := range farm {
		farmSet[u] = true
	}
	hits := 0
	for _, s := range suspects {
		if farmSet[s.page] {
			hits++
		}
	}
	fmt.Printf("flagged %d pages (degree ≥ 40, LCC > 0.5); %d/%d are actual farm members\n",
		len(suspects), hits, farmSize)
	fmt.Println("top suspects (page, degree, LCC):")
	for i, s := range suspects {
		if i == 10 {
			break
		}
		tag := ""
		if farmSet[s.page] {
			tag = "  <-- planted spam"
		}
		fmt.Printf("  %6d  deg=%3d  lcc=%.3f%s\n", s.page, s.deg, s.lcc, tag)
	}
	if hits < farmSize*9/10 {
		log.Fatalf("detector missed too many farm members: %d/%d", hits, farmSize)
	}
	fmt.Println("spam farm detected ✓")
}
