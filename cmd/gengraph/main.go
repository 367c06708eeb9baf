// Command gengraph generates instances from the synthetic families and
// writes them to disk as text edge lists ("u v" per line), printing
// Table-I-style statistics and the generation's wall time (load=). Saved instances can be fed back to
// `tricount -input`.
//
//	gengraph -gen rgg2d -n 65536 -o rgg.txt
//	gengraph -gen rmat -n 4096 -o rmat.txt -triangles
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "gengraph: %v\n", err)
		os.Exit(1)
	}
}

// run parses args as gengraph's flags and writes its report to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("gengraph", flag.ExitOnError)
	var (
		family     = fs.String("gen", "", "generator family: gnm|rmat|rgg2d|rhg")
		n          = fs.Int("n", 1<<14, "vertices for -gen")
		edgeFactor = fs.Int("ef", 16, "edge factor for -gen")
		seed       = fs.Uint64("seed", 42, "generator seed")
		out        = fs.String("o", "", "output file (omit to only print stats)")
		stats      = fs.Bool("stats", true, "print instance statistics")
		triangles  = fs.Bool("triangles", false, "also count triangles (can be slow)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *family == "" {
		return fmt.Errorf("need -gen")
	}
	start := time.Now()
	g, err := gen.ByFamily(*family, *n, *edgeFactor, *seed)
	if err != nil {
		return err
	}
	load := time.Since(start)

	if *stats {
		s := graph.ComputeStats(g)
		fmt.Fprintf(stdout, "n=%d m=%d avgdeg=%.2f maxdeg=%d wedges=%d load=%v\n",
			s.N, s.M, s.AvgDegree, s.MaxDegree, s.Wedges, load.Round(time.Microsecond))
		if *triangles {
			fmt.Fprintf(stdout, "triangles=%d\n", core.SeqCount(g))
		}
	}

	if *out == "" {
		return nil
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := graph.WriteEdgeListText(f, g); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s\n", *out)
	return nil
}
