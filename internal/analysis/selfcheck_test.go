// The selfcheck is the suite's own tier-1 gate: the four analyzers run
// over the entire repository must be silent. It is the same run
// scripts/vet.sh performs in CI, so a violation — a minted context, a
// write to a published snapshot, a blocking call under a hot-path mutex,
// an insert path that skips its journal append — fails `go test ./...`
// locally before it ever reaches a reviewer. Stale suppressions fail it
// too: an //plshvet:ignore that no longer matches a finding is itself a
// finding.
package analysis_test

import (
	"testing"

	"plsh/internal/analysis/ctxcheck"
	"plsh/internal/analysis/framework"
	"plsh/internal/analysis/lockorder"
	"plsh/internal/analysis/snapfreeze"
	"plsh/internal/analysis/walorder"
)

func TestRepoIsClean(t *testing.T) {
	pkgs, err := framework.Load("../..", []string{"./..."})
	if err != nil {
		t.Fatalf("loading repository: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages; the repo sweep is not covering the tree", len(pkgs))
	}
	findings, err := framework.Run(pkgs, []*framework.Analyzer{
		ctxcheck.Analyzer,
		lockorder.Analyzer,
		snapfreeze.Analyzer,
		walorder.Analyzer,
	})
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}
