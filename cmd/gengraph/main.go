// Command gengraph generates instances from the synthetic families and
// writes them to disk (text or binary edge lists), printing Table-I-style
// statistics. Saved instances can be fed back to `tricount -input`.
//
//	gengraph -gen rgg2d -n 65536 -o rgg.bin -format binary
//	gengraph -gen rmat -n 4096 -o rmat.txt -triangles
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "gengraph: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		family     = flag.String("gen", "", "generator family: gnm|rmat|rgg2d|rhg")
		n          = flag.Int("n", 1<<14, "vertices for -gen")
		edgeFactor = flag.Int("ef", 16, "edge factor for -gen")
		seed       = flag.Uint64("seed", 42, "generator seed")
		out        = flag.String("o", "", "output file (omit to only print stats)")
		format     = flag.String("format", "text", "output format: text|binary")
		stats      = flag.Bool("stats", true, "print instance statistics")
		triangles  = flag.Bool("triangles", false, "also count triangles (can be slow)")
	)
	flag.Parse()

	if *family == "" {
		return fmt.Errorf("need -gen")
	}
	g, err := gen.ByFamily(*family, *n, *edgeFactor, *seed)
	if err != nil {
		return err
	}

	if *stats {
		s := graph.ComputeStats(g)
		fmt.Printf("n=%d m=%d avgdeg=%.2f maxdeg=%d wedges=%d\n",
			s.N, s.M, s.AvgDegree, s.MaxDegree, s.Wedges)
		if *triangles {
			fmt.Printf("triangles=%d\n", core.SeqCount(g))
		}
	}

	if *out == "" {
		return nil
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	switch *format {
	case "text":
		err = graph.WriteEdgeListText(f, g)
	case "binary":
		err = graph.WriteBinary(f, g)
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s (%s)\n", *out, *format)
	return nil
}
