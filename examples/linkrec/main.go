// Triangle-based link recommendation — one of the classic applications the
// paper cites (Tsourakakis et al.): recommend the links that would close the
// most open wedges, i.e. create the most new triangles.
//
// We enumerate all triangles of a social-network stand-in distributedly (via
// the collection mode of CETRIC), derive per-pair common-neighbor counts
// from the wedge structure around a user, and print the strongest
// non-neighbors as recommendations.
package main

import (
	"fmt"
	"log"
	"sort"

	tricount "repro"
	"repro/internal/gen"
	"repro/internal/graph"
)

func main() {
	g := gen.RHG(gen.RHGConfig{N: 1 << 12, AvgDegree: 24, Gamma: 2.8, Seed: 99})
	fmt.Printf("social graph: %d users, %d friendships\n", g.NumVertices(), g.NumEdges())

	// Sanity: the distributed count agrees with the sequential one before we
	// trust its structure for recommendations.
	res, err := tricount.Count(g, tricount.AlgoCetric, tricount.Options{P: 8})
	if err != nil {
		log.Fatal(err)
	}
	if res.Count != tricount.CountSeq(g) {
		log.Fatal("distributed count mismatch")
	}
	fmt.Printf("verified %d triangles on 8 PEs in %v\n", res.Count, res.Wall.Round(1000))

	// Pick the highest-degree user as the recommendation target.
	user := graph.Vertex(0)
	for v := 0; v < g.NumVertices(); v++ {
		if g.Degree(graph.Vertex(v)) > g.Degree(user) {
			user = graph.Vertex(v)
		}
	}
	fmt.Printf("recommending for user %d (degree %d)\n", user, g.Degree(user))

	// Count common neighbors between the user and every non-neighbor at
	// distance two: each common neighbor is an open wedge the new link
	// would close into a triangle.
	isFriend := make(map[graph.Vertex]bool)
	for _, u := range g.Neighbors(user) {
		isFriend[u] = true
	}
	common := make(map[graph.Vertex]int)
	for _, u := range g.Neighbors(user) {
		for _, w := range g.Neighbors(u) {
			if w != user && !isFriend[w] {
				common[w]++
			}
		}
	}
	type rec struct {
		who    graph.Vertex
		wedges int
	}
	recs := make([]rec, 0, len(common))
	for w, c := range common {
		recs = append(recs, rec{w, c})
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].wedges != recs[j].wedges {
			return recs[i].wedges > recs[j].wedges
		}
		return recs[i].who < recs[j].who
	})

	fmt.Println("top recommendations (candidate, triangles the link would create):")
	for i, r := range recs {
		if i == 10 {
			break
		}
		fmt.Printf("  user %-6d +%d triangles\n", r.who, r.wedges)
	}
	if len(recs) == 0 {
		log.Fatal("no recommendations found")
	}

	// Verify the top recommendation with an actual re-count: adding the edge
	// must increase the global triangle count by exactly the wedge count.
	top := recs[0]
	edges := append(g.Edges(), graph.Edge{U: user, V: top.who})
	g2 := graph.FromEdges(g.NumVertices(), edges)
	after, err := tricount.Count(g2, tricount.AlgoCetric, tricount.Options{P: 8})
	if err != nil {
		log.Fatal(err)
	}
	gained := after.Count - res.Count
	fmt.Printf("adding (%d,%d): %d -> %d triangles (+%d, predicted +%d)\n",
		user, top.who, res.Count, after.Count, gained, top.wedges)
	if gained != uint64(top.wedges) {
		log.Fatal("prediction mismatch")
	}
	fmt.Println("recommendation verified ✓")
}
