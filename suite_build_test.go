package plsh

import (
	"os/exec"
	"testing"
)

// TestBenchmarkSuiteBuilds compiles the nested benchmark module against this
// tree. benchmarks/suite has its own go.mod (BENCHMARK.json's contract
// builds it from a bare checkout), so the root's ./... never reaches it and
// an internal API change could break the benchmark with tier-1 green; this
// is tier-1's signal. The suite's own tests run in the CI suite job alone —
// they start fleets.
func TestBenchmarkSuiteBuilds(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go toolchain on PATH")
	}
	for _, args := range [][]string{
		{"vet", "."},
		{"build", "-o", t.TempDir() + "/", "./..."},
	} {
		cmd := exec.CommandContext(t.Context(), "go", args...)
		cmd.Dir = "benchmarks/suite"
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("benchmarks/suite: go %v: %v\n%s", args, err, out)
		}
	}
}
