// Command experiments regenerates every table and figure of the paper's
// evaluation section on scaled-down stand-in inputs. Output is markdown
// tables on stdout.
//
// Usage:
//
//	experiments [-maxp N] [-scale S] [-seed S] table1|fig2|fig5|fig6|fig7|fig8|ablate|all
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/exp"
)

func main() {
	maxP := flag.Int("maxp", 32, "largest PE count in the sweeps")
	scale := flag.Int("scale", 0, "shift every instance size by 2^scale (negative = smaller)")
	seed := flag.Uint64("seed", 42, "base RNG seed")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: experiments [flags] table1|fig2|fig5|fig6|fig7|fig8|ablate|all\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	opt := exp.Options{ScaleShift: *scale, MaxP: *maxP, Seed: *seed}

	runners := map[string]func() error{
		"table1": func() error { return exp.Table1(os.Stdout, opt) },
		"fig2":   func() error { return exp.Fig2(os.Stdout, opt) },
		"fig5":   func() error { return exp.Fig5(os.Stdout, opt) },
		"fig6":   func() error { return exp.Fig6(os.Stdout, opt) },
		"fig7":   func() error { return exp.Fig7(os.Stdout, opt) },
		"fig8":   func() error { return exp.Fig8(os.Stdout, opt) },
		"ablate": func() error { return exp.Ablate(os.Stdout, opt) },
	}
	order := []string{"table1", "fig2", "fig5", "fig6", "fig7", "fig8", "ablate"}

	what := flag.Arg(0)
	start := time.Now()
	if what == "all" {
		for _, name := range order {
			fmt.Printf("# %s\n\n", name)
			if err := runners[name](); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", name, err)
				os.Exit(1)
			}
		}
	} else if run, ok := runners[what]; ok {
		if err := run(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
	} else {
		flag.Usage()
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "experiments: %s done in %v\n", what, time.Since(start).Round(time.Millisecond))
}
