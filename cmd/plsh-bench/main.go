// Command plsh-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	plsh-bench -exp table2              # one experiment
//	plsh-bench -exp fig4 -exp fig5      # several
//	plsh-bench -all                     # everything (§8 end to end)
//	plsh-bench -list                    # show available experiments
//
// Scale flags (-n, -d, -k, -m, -q) trade fidelity to the paper's operating
// point (N=10.5M, D=500K, k=16, m=40, 1000 queries per node) against wall
// time; the defaults run each experiment in seconds-to-minutes on a laptop
// while preserving every comparison's shape. Each experiment prints its
// measured table followed by a "paper:" line with the numbers the paper
// reports, so the output is the paper-vs-measured record.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"plsh/internal/expr"
)

type multiFlag []string

func (m *multiFlag) String() string { return fmt.Sprint([]string(*m)) }
func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

func main() {
	var exps multiFlag
	flag.Var(&exps, "exp", "experiment to run (repeatable); see -list")
	all := flag.Bool("all", false, "run every experiment")
	list := flag.Bool("list", false, "list experiments and exit")
	// The defaults are a laptop-scale configuration.
	n := flag.Int("n", 50000, "dataset size (per node for multi-node experiments)")
	dim := flag.Int("d", 50000, "vocabulary size / dimensionality")
	k := flag.Int("k", 16, "bits per hash table (even)")
	m := flag.Int("m", 16, "number of half-width hash functions (L = m(m-1)/2)")
	q := flag.Int("q", 500, "query-set size")
	radius := flag.Float64("r", 0.9, "R-near-neighbor radius (radians)")
	workers := flag.Int("workers", 0, "worker threads (0 = GOMAXPROCS)")
	seed := flag.Uint64("seed", 42, "random seed")
	flag.Parse()

	if *list {
		for _, r := range expr.All() {
			fmt.Printf("  %-10s %s\n", r.Name, r.Desc)
		}
		return
	}

	opts := expr.Options{
		N: *n, Dim: *dim, K: *k, M: *m,
		Queries: *q, Radius: *radius, Workers: *workers, Seed: *seed,
	}

	var runners []expr.Runner
	if *all {
		runners = expr.All()
	} else {
		for _, name := range exps {
			r, ok := expr.Lookup(name)
			if !ok {
				fmt.Fprintf(os.Stderr, "plsh-bench: unknown experiment %q (see -list)\n", name)
				os.Exit(2)
			}
			runners = append(runners, r)
		}
	}
	if len(runners) == 0 {
		fmt.Fprintln(os.Stderr, "plsh-bench: nothing to run; use -exp NAME, -all, or -list")
		os.Exit(2)
	}

	for _, r := range runners {
		t0 := time.Now()
		if err := r.Run(opts, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "plsh-bench: %s: %v\n", r.Name, err)
			os.Exit(1)
		}
		fmt.Printf("[%s completed in %v]\n", r.Name, time.Since(t0).Round(time.Millisecond))
	}
}
