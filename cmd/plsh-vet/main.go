// Command plsh-vet is the repository's custom static check: lockorder,
// which holds the mutexes to one acquisition order and keeps blocking
// calls out from under them. The framework also rejects malformed, unknown
// and stale //plshvet:ignore directives. See internal/analysis/README.md.
//
//	plsh-vet [packages]
//
// loads and checks the named packages (default ./...) of the module in the
// current directory, prints each finding as file:line:col, and exits 1 if
// any survives its suppressions.
package main

import (
	"fmt"
	"os"

	"plsh/internal/analysis/framework"
	"plsh/internal/analysis/lockorder"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(patterns []string) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := framework.Load(".", patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "plsh-vet: %v\n", err)
		return 2
	}
	findings, err := framework.Run(pkgs, []*framework.Analyzer{lockorder.Analyzer})
	if err != nil {
		fmt.Fprintf(os.Stderr, "plsh-vet: %v\n", err)
		return 2
	}
	for _, f := range findings {
		fmt.Fprintln(os.Stderr, f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "plsh-vet: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}
