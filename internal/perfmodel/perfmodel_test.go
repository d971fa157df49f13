package perfmodel

import (
	"testing"

	"plsh/internal/core"
	"plsh/internal/corpus"
	"plsh/internal/lshhash"
)

func testWorkload(t *testing.T, nDocs int) (Workload, *corpus.Collection) {
	t.Helper()
	cfg := corpus.Twitter(nDocs, 2000, 7)
	cfg.NearDupRate = 0.2
	c := corpus.Generate(cfg)
	return SampleWorkload(c.Mat, 50, 200, 11), c
}

// checkPlausible fails t for each constant outside (0, 1e5] ns.
func checkPlausible(t *testing.T, consts map[string]float64) {
	t.Helper()
	for name, v := range consts {
		if v <= 0 {
			t.Errorf("%s = %v, want > 0", name, v)
		}
		if v > 1e5 {
			t.Errorf("%s = %v ns, implausibly large", name, v)
		}
	}
}

func TestCalibratePositive(t *testing.T) {
	c := Calibrate(2000, 7.2, 1)
	checkPlausible(t, map[string]float64{
		"CollisionNS":   c.CollisionNS,
		"ScanNSPerWord": c.ScanNSPerWord,
		"TableProbeNS":  c.TableProbeNS,
		"CheckNS":       c.CheckNS,
		"UniqueNS":      c.UniqueNS,
	})
	// Sanity ordering: a masked dot over a whole document costs more than
	// marking one bit.
	if c.UniqueNS < c.CollisionNS {
		t.Errorf("UniqueNS %v < CollisionNS %v", c.UniqueNS, c.CollisionNS)
	}
	t.Logf("CheckNS %.1f, UniqueNS %.1f", c.CheckNS, c.UniqueNS)
}

func TestCalibrateBuildPositive(t *testing.T) {
	c := Costs{}.CalibrateBuild(DefaultCalibration(2000, 7.2, 8192, 12, 8))
	checkPlausible(t, map[string]float64{
		"HashNS":        c.HashNS,
		"PartitionNS":   c.PartitionNS,
		"GatherNS":      c.GatherNS,
		"SecondLevelNS": c.SecondLevelNS,
	})
	if c.CollisionNS != 0 || c.TableProbeNS != 0 || c.ScanNSPerWord != 0 || c.CheckNS != 0 || c.UniqueNS != 0 {
		t.Errorf("CalibrateBuild set a query constant: %+v", c)
	}
}

// The build constants are the measured phases divided by the operations
// the shared build makes, so EstimateBuild at the same (N, k, m) gives the
// phases back: the conversion and the estimate are inverses.
func TestEstimateBuildInvertsBuildTimings(t *testing.T) {
	tm := core.BuildTimings{HashNS: 91_000_000, I1NS: 4_300_000, I2NS: 38_000_000, I3NS: 97_000_000}
	for _, pt := range []struct{ n, nnz, k, m int }{
		{50_000, 360_000, 16, 16},
		{8_192, 57_000, 12, 8},
		{1_024, 1_024, 4, 2},
	} {
		c := Costs{}.withBuild(tm, pt.n, pt.nnz, pt.k, pt.m)
		w := Workload{N: pt.n, MeanNNZ: float64(pt.nnz) / float64(pt.n)}
		e := c.EstimateBuild(w, pt.k, pt.m)
		for _, ph := range []struct {
			name      string
			est, want float64
		}{
			{"hashing", e.HashNS, float64(tm.HashNS)},
			{"I1", e.I1NS, float64(tm.I1NS)},
			{"I2", e.I2NS, float64(tm.I2NS)},
			{"I3", e.I3NS, float64(tm.I3NS)},
		} {
			if RelativeError(ph.est, ph.want) > 1e-12 {
				t.Errorf("(N, k, m) = (%d, %d, %d): %s estimated %v ns, timed %v", pt.n, pt.k, pt.m, ph.name, ph.est, ph.want)
			}
		}
	}
}

// BenchmarkCalibrate is what plsh.Tune pays for its constants: one
// Calibrate over a 50 000-word vocabulary at the tweet corpus's mean of 7.2
// words a document.
func BenchmarkCalibrate(b *testing.B) {
	for b.Loop() {
		Calibrate(50000, 7.2, 1)
	}
}

func TestSampleWorkloadShape(t *testing.T) {
	w, _ := testWorkload(t, 500)
	if w.N != 500 {
		t.Fatalf("N = %d", w.N)
	}
	if len(w.Dists) != 50*200 {
		t.Fatalf("samples = %d", len(w.Dists))
	}
	if w.MeanNNZ < 3 || w.MeanNNZ > 10 {
		t.Fatalf("MeanNNZ = %v", w.MeanNNZ)
	}
	for _, d := range w.Dists {
		if d < 0 || d > 3.1416 {
			t.Fatalf("distance %v out of range", d)
		}
	}
}

func TestSampleWorkloadEmpty(t *testing.T) {
	w := SampleWorkload(corpus.Generate(corpus.Twitter(1, 100, 1)).Mat, 0, 0, 1)
	if w.ExpCollisions(8, 6) != 0 || w.ExpUnique(8, 6) != 0 {
		t.Fatal("empty sample should estimate zero")
	}
}

func TestExpectationMonotonicity(t *testing.T) {
	w, _ := testWorkload(t, 800)
	// More tables (larger m) → more collisions and more unique candidates.
	if w.ExpCollisions(8, 10) <= w.ExpCollisions(8, 5) {
		t.Error("ExpCollisions not increasing in m")
	}
	if w.ExpUnique(8, 10) <= w.ExpUnique(8, 5) {
		t.Error("ExpUnique not increasing in m")
	}
	// Longer keys (larger k) → fewer collisions.
	if w.ExpCollisions(12, 8) >= w.ExpCollisions(6, 8) {
		t.Error("ExpCollisions not decreasing in k")
	}
	// Unique ≤ collisions (each unique point collides ≥ once), and unique
	// ≤ N.
	if u, c := w.ExpUnique(8, 8), w.ExpCollisions(8, 8); u > c {
		t.Errorf("E[unique] %v > E[collisions] %v", u, c)
	}
	if u := w.ExpUnique(8, 8); u > float64(w.N) {
		t.Errorf("E[unique] %v > N %d", u, w.N)
	}
}

// The headline claim of §7: predicted E[#collisions] and E[#unique] match
// the measured work counts of the real engine. Sampling error bounds are
// loose but the estimates must land within ~35% on a self-sampled corpus.
func TestModelPredictsEngineWork(t *testing.T) {
	w, c := testWorkload(t, 1500)
	p := lshhash.Params{Dim: 2000, K: 8, M: 8, Seed: 42}
	fam, err := lshhash.NewFamily(p)
	if err != nil {
		t.Fatal(err)
	}
	st, err := core.Build(fam, c.Mat, core.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(st, c.Mat, core.QueryDefaults())
	queries := c.SampleQueries(200, 31)
	stats := make([]core.QueryStats, len(queries))
	for i, q := range queries {
		_, stats[i] = eng.SearchAppend(nil, q, core.SearchParams{})
	}
	var collisions, unique float64
	for _, s := range stats {
		collisions += float64(s.Collisions)
		unique += float64(s.Unique)
	}
	collisions /= float64(len(stats))
	unique /= float64(len(stats))

	estColl := w.ExpCollisions(p.K, p.M)
	estUniq := w.ExpUnique(p.K, p.M)
	if e := RelativeError(estColl, collisions); e > 0.35 {
		t.Errorf("collision estimate %.1f vs measured %.1f (err %.0f%%)", estColl, collisions, e*100)
	}
	if e := RelativeError(estUniq, unique); e > 0.35 {
		t.Errorf("unique estimate %.1f vs measured %.1f (err %.0f%%)", estUniq, unique, e*100)
	}
}

func TestEstimatesScaleWithN(t *testing.T) {
	w, _ := testWorkload(t, 600)
	small := Costs{CollisionNS: 1, ScanNSPerWord: 1, UniqueNS: 10, HashNS: 1, PartitionNS: 1, GatherNS: 1}
	e1 := small.EstimateQuery(w, 8, 8)
	w.N *= 10
	e10 := small.EstimateQuery(w, 8, 8)
	if e10.TotalNS < 5*e1.TotalNS {
		t.Errorf("estimate did not scale with N: %v vs %v", e1.TotalNS, e10.TotalNS)
	}
	b1 := small.EstimateBuild(w, 8, 8)
	if b1.TotalNS != b1.HashNS+b1.I1NS+b1.I2NS+b1.I3NS {
		t.Error("build estimate total != sum of phases")
	}
}

func TestSelectRespectsConstraints(t *testing.T) {
	w, _ := testWorkload(t, 1000)
	costs := Calibrate(2000, w.MeanNNZ, 3)
	const radius, delta = 0.9, 0.1
	choice, err := Select(costs, w, radius, delta, 16, 64, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if lshhash.RetrievalProb(radius, choice.K, choice.M) < 1-delta {
		t.Fatalf("choice (%d,%d) violates recall constraint", choice.K, choice.M)
	}
	if choice.L != choice.M*(choice.M-1)/2 {
		t.Fatalf("L inconsistent: %+v", choice)
	}
	wantMem := core.TableMemoryBound(w.N, choice.K, choice.L)
	if choice.MemoryBytes != wantMem {
		t.Fatalf("memory accounting: %d vs %d", choice.MemoryBytes, wantMem)
	}
}

func TestSelectMemoryBudgetBinds(t *testing.T) {
	w, _ := testWorkload(t, 1000)
	costs := Costs{CollisionNS: 1, ScanNSPerWord: 1, UniqueNS: 10, HashNS: 1, PartitionNS: 1, GatherNS: 1}
	loose, err := Select(costs, w, 0.9, 0.1, 16, 64, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	tight, err := Select(costs, w, 0.9, 0.1, 16, 64, loose.MemoryBytes/2)
	if err != nil {
		// A budget too tight for any choice is a legitimate outcome.
		return
	}
	if tight.MemoryBytes > loose.MemoryBytes/2 {
		t.Fatalf("budget violated: %d > %d", tight.MemoryBytes, loose.MemoryBytes/2)
	}
}

func TestSelectInfeasible(t *testing.T) {
	w, _ := testWorkload(t, 100)
	costs := Costs{CollisionNS: 1, ScanNSPerWord: 1, UniqueNS: 1, HashNS: 1, PartitionNS: 1, GatherNS: 1}
	if _, err := Select(costs, w, 0.9, 0.1, 16, 64, 1); err == nil {
		t.Fatal("1-byte budget should be infeasible")
	}
	if _, err := Select(costs, w, 0.9, 1e-9, 40, 3, 1<<40); err == nil {
		t.Fatal("impossible recall should be infeasible")
	}
}

func TestRelativeError(t *testing.T) {
	if RelativeError(110, 100) != 0.1 {
		t.Fatal("RelativeError(110,100) != 0.1")
	}
	if got := RelativeError(90, 100); got < 0.0999 || got > 0.1001 {
		t.Fatalf("RelativeError(90,100) = %v", got)
	}
}
