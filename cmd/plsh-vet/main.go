// Command plsh-vet is the repository's custom static-analysis suite:
// four analyzers for invariants no test pins — context threading
// (ctxcheck), write-once published structs (snapfreeze), mutex
// acquisition order and no blocking under hot-path locks (lockorder),
// and journal-before-ack durability ordering (walorder). The framework
// also rejects stale //plshvet:ignore directives that no longer
// suppress anything. See internal/analysis/README.md.
//
//	plsh-vet [-json] [-timing] [-report FILE] [packages]
//
// loads and checks the named packages (default ./...) in the current
// module. Analyzers run in parallel; -timing prints per-analyzer wall
// time, -report also writes the text report (findings + timings) to FILE
// for CI artifacts. Exits 1 if any finding survives its suppressions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"plsh/internal/analysis/ctxcheck"
	"plsh/internal/analysis/framework"
	"plsh/internal/analysis/lockorder"
	"plsh/internal/analysis/snapfreeze"
	"plsh/internal/analysis/walorder"
)

func analyzers() []*framework.Analyzer {
	return []*framework.Analyzer{
		ctxcheck.Analyzer,
		lockorder.Analyzer,
		snapfreeze.Analyzer,
		walorder.Analyzer,
	}
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("plsh-vet", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "emit findings as JSON")
	dir := fs.String("dir", ".", "directory to resolve patterns from")
	timing := fs.Bool("timing", false, "print per-analyzer wall time")
	report := fs.String("report", "", "also write the text report (findings + timings) to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := framework.Load(*dir, patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "plsh-vet: %v\n", err)
		return 2
	}
	findings, timings, err := framework.RunTimed(pkgs, analyzers())
	if err != nil {
		fmt.Fprintf(os.Stderr, "plsh-vet: %v\n", err)
		return 2
	}
	var rep strings.Builder
	for _, f := range findings {
		fmt.Fprintln(&rep, f)
	}
	for _, tm := range timings {
		fmt.Fprintf(&rep, "timing\t%-14s %s\n", tm.Analyzer, tm.Elapsed.Round(time.Millisecond))
	}
	if *report != "" {
		if err := os.WriteFile(*report, []byte(rep.String()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "plsh-vet: %v\n", err)
			return 2
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintf(os.Stderr, "plsh-vet: %v\n", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(os.Stderr, f)
		}
	}
	if *timing {
		for _, tm := range timings {
			fmt.Fprintf(os.Stderr, "timing\t%-14s %s\n", tm.Analyzer, tm.Elapsed.Round(time.Millisecond))
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "plsh-vet: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}
