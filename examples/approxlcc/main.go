// Approximate local clustering coefficients with Bloom-filter
// neighborhoods — the paper's §IV-E extension. The classic approximation
// baselines (DOULION, colorful sparsification) can only estimate the global
// triangle count; the AMQ variant of CETRIC estimates per-vertex counts
// while cutting the global-phase communication volume.
//
// This example sweeps the filter budget and reports estimate quality and
// volume savings against the exact run, plus the global-count baselines for
// context.
package main

import (
	"fmt"
	"log"
	"math"

	tricount "repro"
)

func main() {
	g := tricount.GenerateGNM(1<<13, 16<<13, 21) // no locality: many type-3 triangles
	opt := tricount.Options{P: 16}

	exact, err := tricount.Count(g, tricount.AlgoCetric, opt)
	if err != nil {
		log.Fatal(err)
	}
	exactLCCOpt := opt
	exactLCCOpt.LCC = true
	exactRes, err := tricount.Count(g, tricount.AlgoCetric, exactLCCOpt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: n=%d m=%d, exact triangles=%d (%d type-3)\n",
		g.NumVertices(), g.NumEdges(), exact.Count, exact.TypeCounts[2])
	fmt.Printf("exact global-phase payload: %d words\n\n", exact.Agg.TotalPayload)

	fmt.Println("bits/key | count est | rel.err | LCC MAE | payload vs exact")
	for _, bits := range []float64{2, 4, 8, 16} {
		res, err := tricount.CountApprox(g, exactLCCOpt, tricount.ApproxOptions{
			BitsPerKey: bits, Truthful: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		relErr := math.Abs(res.Estimate-float64(exact.Count)) / float64(exact.Count)
		var mae float64
		for v, want := range exactRes.LCC {
			mae += math.Abs(res.LCCEstimates[v] - want)
		}
		mae /= float64(g.NumVertices())
		ratio := float64(res.Agg.TotalPayload) / float64(exact.Agg.TotalPayload)
		fmt.Printf("%8.0f | %9.0f | %6.3f%% | %7.5f | %.2fx\n",
			bits, res.Estimate, relErr*100, mae, ratio)
	}

	fmt.Println("\nglobal-count-only baselines (cannot estimate LCC):")
	for _, q := range []float64{0.3, 0.6} {
		est, err := tricount.CountDoulion(g, tricount.AlgoCetric, opt, q, 5)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  doulion q=%.1f:  est %9.0f (rel.err %.3f%%)\n",
			q, est, math.Abs(est-float64(exact.Count))/float64(exact.Count)*100)
	}
	for _, nc := range []int{2, 3} {
		est, err := tricount.CountColorful(g, tricount.AlgoCetric, opt, nc, 5)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  colorful N=%d:   est %9.0f (rel.err %.3f%%)\n",
			nc, est, math.Abs(est-float64(exact.Count))/float64(exact.Count)*100)
	}
}
