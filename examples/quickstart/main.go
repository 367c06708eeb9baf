// Quickstart: generate a graph, count its triangles with CETRIC on eight
// simulated PEs, and compare against the sequential counter.
package main

import (
	"fmt"
	"log"

	tricount "repro"
)

func main() {
	// A random hyperbolic graph: power-law degrees, high clustering — the
	// kind of instance the paper's weak-scaling experiments use.
	g := tricount.GenerateRHG(1<<13, 32, 2.8, 42)
	fmt.Printf("graph: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())

	res, err := tricount.Count(g, tricount.AlgoCetric, tricount.Options{P: 8})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CETRIC on 8 PEs:   %d triangles in %v\n", res.Count, res.Wall.Round(1000))
	fmt.Printf("  by type: %d local, %d two-PE, %d three-PE\n",
		res.TypeCounts[0], res.TypeCounts[1], res.TypeCounts[2])
	fmt.Printf("  bottleneck communication volume: %d words, max messages: %d\n",
		res.Agg.MaxPayloadWords, res.Agg.MaxSentFrames)

	seq := tricount.CountSeq(g)
	fmt.Printf("sequential check:  %d triangles\n", seq)
	if seq != res.Count {
		log.Fatal("distributed and sequential counts disagree!")
	}
	fmt.Println("counts agree ✓")
}
