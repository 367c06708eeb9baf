// Approximate local clustering coefficients with Bloom-filter
// neighborhoods — the paper's §IV-E extension. The AMQ variant of CETRIC
// estimates per-vertex triangle counts, not just the global one, while
// cutting the global-phase communication volume.
//
// This example sweeps the filter budget and reports estimate quality and
// volume savings against the exact run. It exits non-zero unless every
// filter budget ships less than the exact run, the LCC error falls as the
// budget grows, and the count estimate at 8 and 16 bits per key is within
// 2 % of the exact count.
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

	var failures []string
	prevMAE := math.Inf(1)
	fmt.Println("bits/key | count est | rel.err | LCC MAE | payload vs exact")
	for _, bits := range []float64{2, 4, 8, 16} {
		res, err := tricount.CountApprox(g, exactLCCOpt, tricount.ApproxOptions{BitsPerKey: bits})
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

		if ratio >= 1 {
			failures = append(failures, fmt.Sprintf("%g bits/key ships %.2fx the exact payload, want < 1", bits, ratio))
		}
		if mae >= prevMAE {
			failures = append(failures, fmt.Sprintf("LCC MAE %.5f at %g bits/key does not fall below %.5f", mae, bits, prevMAE))
		}
		prevMAE = mae
		if bits >= 8 && relErr > 0.02 {
			failures = append(failures, fmt.Sprintf("%g bits/key estimate off by %.2f%%, want within 2%%", bits, relErr*100))
		}
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Println("FAIL:", f)
		}
		log.Fatalf("%d check(s) failed", len(failures))
	}
	fmt.Println("\nall checks pass ✓")
}
