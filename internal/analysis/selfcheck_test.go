// The selfcheck is the suite's own tier-1 gate: lockorder run over the
// entire repository must be silent. It is the same run scripts/vet.sh
// performs in CI, so a mutex taken against the tree's one acquisition
// order, or a blocking call made under a mutex, fails `go test ./...`
// locally before it ever reaches a reviewer. Directives fail it too: an
// //plshvet:ignore that no longer matches a finding, one naming an
// analyzer that does not exist, and any other //plshvet: verb.
package analysis_test

import (
	"testing"

	"plsh/internal/analysis/framework"
	"plsh/internal/analysis/lockorder"
)

func TestRepoIsClean(t *testing.T) {
	pkgs, err := framework.Load("../..", []string{"./..."})
	if err != nil {
		t.Fatalf("loading repository: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages; the repo sweep is not covering the tree", len(pkgs))
	}
	findings, err := framework.Run(pkgs, []*framework.Analyzer{lockorder.Analyzer})
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}
