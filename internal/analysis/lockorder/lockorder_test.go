package lockorder

import (
	"testing"

	"plsh/internal/analysis/framework/testutil"
)

func TestLockorder(t *testing.T) {
	testutil.Run(t, "testdata", Analyzer)
}

// TestExcludedPackage proves ExcludeBlocking switches off only the
// blocking check: the excluded fixture blocks under its mutex freely
// but still reports its acquisition-order cycle.
func TestExcludedPackage(t *testing.T) {
	a := New(Policy{
		Blocking:        DefaultPolicy.Blocking,
		ExcludeBlocking: []string{"lockexcl"},
	})
	testutil.Run(t, "testdata/excl", a)
}

// TestBlockingPolicy proves a call is blocking because Policy.Blocking
// names its callee, though nothing in the callee's body blocks and it lives
// in another package: a checkpoint under the node mutex, made directly or
// through a helper, is a finding.
func TestBlockingPolicy(t *testing.T) {
	testutil.Run(t, "testdata/policy", New(Policy{Blocking: []string{"(*journal.WAL).Checkpoint"}}))
}
