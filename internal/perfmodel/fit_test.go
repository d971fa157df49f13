package perfmodel

import (
	"testing"

	"plsh/internal/corpus"
	"plsh/internal/lshhash"
)

func TestFitQueryProducesSaneConstants(t *testing.T) {
	c := corpus.Generate(corpus.Twitter(4000, 3000, 7))
	base := Calibrate(3000, 7.0, 1)
	fitted, err := base.FitQuery(c.Mat, FitConfig{Queries: 60, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if fitted.TableProbeNS <= 0 || fitted.UniqueNS <= 0 {
		t.Fatalf("non-positive fitted constants: %+v", fitted)
	}
	if fitted.TableProbeNS > 1e5 || fitted.UniqueNS > 1e5 {
		t.Fatalf("implausibly large fitted constants: %+v", fitted)
	}
	// Microbench constants for the small terms must survive the fit.
	if fitted.CollisionNS != base.CollisionNS || fitted.ScanNSPerWord != base.ScanNSPerWord {
		t.Fatal("fit overwrote microbench constants it should keep")
	}
}

// The fitted model must predict the engine's *work-weighted* cost at a
// configuration it was not fitted on, within a loose noise bound.
func TestFittedModelExtrapolates(t *testing.T) {
	if testing.Short() {
		t.Skip("measurement-based")
	}
	col := corpus.Generate(corpus.Twitter(8000, 5000, 11))
	w := SampleWorkload(col.Mat, 100, 400, 13)
	base := Calibrate(5000, w.MeanNNZ, 1)
	fitted, err := base.FitQuery(col.Mat, FitConfig{Queries: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Target config (k=10, m=10) differs from the fit references (12,8)
	// and (14,12).
	const k, m = 10, 10
	fam, err := lshhash.NewFamily(lshhash.Params{Dim: 5000, K: k, M: m, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	queries := col.SampleQueries(150, 19)
	_, ph, _, err := Measure(fam, col.Mat, queries, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	actual := float64(ph.Q2NS + ph.Q3NS)
	est := fitted.EstimateQuery(w, k, m).TotalNS * float64(len(queries))
	if e := RelativeError(est, actual); e > 1.0 {
		t.Fatalf("fitted model off by %.0f%% at unseen config (est %.2fms, actual %.2fms)",
			e*100, est/1e6, actual/1e6)
	}
}

// TestTimedBuildFindsTheFamilyWarm: the build Measure and CalibrateBuild
// time runs on a family that has already drawn every hyperplane row it
// reads, so the family's rows do not change across the timed build
// (timedBuild checks it, and errs) and Fig. 6's hashing row prices the warm
// hashing the model prices. Handed a family that has hashed nothing, as
// Fig. 6 does, it still finds it warm.
func TestTimedBuildFindsTheFamilyWarm(t *testing.T) {
	col := corpus.Generate(corpus.Twitter(600, 3000, 5))
	fam, err := lshhash.NewFamily(lshhash.Params{Dim: 3000, K: 8, M: 6, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	cold := fam.MemoryBytes()
	if _, _, err := timedBuild(fam, col.Mat); err != nil {
		t.Fatal(err)
	}
	if fam.MemoryBytes() == cold {
		t.Fatal("the build drew no hyperplane rows; the test wants a family that starts cold")
	}
}
