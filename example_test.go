package tricount_test

import (
	"fmt"
	"log"

	tricount "repro"
)

// Example_quickstart is the package documentation's quick start, verbatim:
// if the doc comment and this example drift apart, review catches it; if the
// snippet stops compiling or the count changes, this test fails.
func Example_quickstart() {
	g := tricount.GenerateRGG2D(1<<12, 16, 42)
	res, err := tricount.Count(g, tricount.AlgoCetric, tricount.Options{P: 8})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Count)
	// Output: 386649
}

// Counting triangles on a generated graph with CETRIC on four PEs.
func ExampleCount() {
	g := tricount.GenerateRMAT(10, 16, 42)
	res, err := tricount.Count(g, tricount.AlgoCetric, tricount.Options{P: 4})
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Count == tricount.CountSeq(g))
	// Output: true
}

// Exact local clustering coefficients, computed distributedly.
func ExampleLCC() {
	g := tricount.GenerateRHG(1<<10, 16, 2.8, 7)
	lcc, _, err := tricount.LCC(g, tricount.AlgoCetric, tricount.Options{P: 4, Indirect: true})
	if err != nil {
		panic(err)
	}
	exact := tricount.LCCSeq(g)
	same := true
	for v := range lcc {
		if lcc[v] != exact[v] {
			same = false
		}
	}
	fmt.Println(same)
	// Output: true
}

// Enumerating the triangles of a small clique.
func ExampleEnumerate() {
	g := tricount.GenerateGNM(4, 6, 1) // K4
	n := 0
	tricount.Enumerate(g, func(a, b, c tricount.Vertex) { n++ })
	fmt.Println(n)
	// Output: 4
}

// Approximate counting with Bloom-filter neighborhoods.
func ExampleCountApprox() {
	g := tricount.GenerateGNM(1<<10, 16<<10, 9)
	res, err := tricount.CountApprox(g, tricount.Options{P: 4},
		tricount.ApproxOptions{BitsPerKey: 16})
	if err != nil {
		panic(err)
	}
	exact := float64(tricount.CountSeq(g))
	rel := (res.Estimate - exact) / exact
	fmt.Println(rel < 0.05 && rel > -0.05)
	// Output: true
}
