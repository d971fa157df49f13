// Command suite is the repository's benchmark: four workloads (three of
// them gated by BENCHMARK.json, fleet_mixed only reported) measured as
// a client sees them, and a traced ladder that times every layer from
// outside through its public functions. BENCHMARK.json at the repository
// root declares the workloads, the metrics, their units and regression
// bounds; README.md in this directory defines each of them.
//
//	bash benchmarks/suite/run.sh --workload all --seed 1            # end-to-end metrics
//	bash benchmarks/suite/run.sh --workload all --seed 1 --trace 1  # plus every layer
//
// The load is generated from this one process, with no more client and
// writer goroutines than the machine has cores. Answers are verified
// against a client-side mirror of every acknowledged write. The last line
// of standard output is one JSON object: correct, attempted, failed and
// the metrics (end-to-end with --trace 0, per-layer with --trace 1). A
// harness failure — the system could not be set up, a metric is missing,
// the window was too short to mean anything — exits non-zero without it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "all", "static_query, stream_ingest, fleet_mixed, fleet_routed_batch, or all")
		seed     = flag.Uint64("seed", 1, "seed of the query sample and its order, the delete choice and the recent-row picks (the corpus itself is fixed)")
		seconds  = flag.Float64("seconds", 0, "the measured window; a constant of the benchmark, so only run_seconds of BENCHMARK.json is accepted")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics (live counters and the traced ladder)")
		traceOut = flag.String("trace-out", "", "with -trace 1: write the ladder's spans to this file as JSON lines")
		repeat   = flag.Int("check-repeat", 0, "run the selected workloads as two sets of this many runs and compare their medians against the bounds")
	)
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	if err := os.Chdir(root); err != nil {
		return fail(err)
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return fail(err)
	}
	window := float64(spec.RunSeconds)
	if *seconds != 0 && *seconds != window {
		return fail(fmt.Errorf("--seconds %g: the window is a constant of the benchmark, run_seconds = %d in BENCHMARK.json", *seconds, spec.RunSeconds))
	}
	var names []string
	switch {
	case *workload == "all":
		// Every workload the suite implements: the three BENCHMARK.json
		// gates and fleet_mixed, which it does not (see README).
		for _, w := range workloads {
			names = append(names, w.name)
		}
	case findWorkload(*workload) != nil:
		names = []string{*workload}
	default:
		return fail(fmt.Errorf("unknown workload %q", *workload))
	}
	if *repeat > 0 {
		return checkRepeat(spec, names, *seed, *repeat)
	}

	tmp, err := os.MkdirTemp("", "plsh-suite-")
	if err != nil {
		return fail(err)
	}
	e := &env{sz: full, seed: *seed, seconds: window, layers: *trace == 1, tmp: tmp}
	cleanup := func() {
		e.killFleets()
		_ = os.RemoveAll(tmp)
	}
	defer cleanup()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		cleanup()
		os.Exit(130)
	}()

	runtime.GOMAXPROCS(nproc())
	fmt.Printf("# plsh benchmark suite: go=%s commit=%s nproc=%d gomaxprocs=%d seed=%d window=%gs n0=%d\n",
		runtime.Version(), commit(), nproc(), runtime.GOMAXPROCS(0), *seed, window, e.sz.n0)

	ctx := context.Background()
	var ladder map[string]float64
	if e.layers {
		// The ladder depends on the seed alone, so one pass serves every
		// selected workload.
		if ladder, err = runLadder(ctx, e, *traceOut); err != nil {
			return fail(fmt.Errorf("ladder: %w", err))
		}
	}
	var last resultLine
	for _, name := range names {
		def := findWorkload(name)
		load := def.load(e.sz)
		fmt.Printf("# %s: clients=%d batch=%d writer=%q\n", name, load.clients, load.batch, def.writer)
		rep, err := runWorkload(ctx, e, def)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", name, err))
		}
		for k, v := range ladder {
			rep.emit(k, v)
		}
		if err := rep.check(spec, !e.layers, e.layers); err != nil {
			return fail(err)
		}
		rep.print(spec)
		last = rep.resultLine(spec, e.layers)
	}
	out, err := json.Marshal(last)
	if err != nil {
		return fail(err)
	}
	// With -workload all the object describes the last workload; the lines
	// above carry every workload's readings.
	fmt.Println(string(out))
	return 0
}

func fail(err error) int {
	fmt.Fprintf(os.Stderr, "suite: harness failure: %v\n", err)
	return 2
}

// commit names the checkout for the run header: the git revision when
// there is one (the driver's checkouts are not repositories).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
