package perfmodel

import (
	"runtime"

	"plsh/internal/core"
	"plsh/internal/lshhash"
	"plsh/internal/sparse"
)

// FitConfig describes the reference runs used by FitQuery.
type FitConfig struct {
	// Queries is the per-run reference query count (default 200).
	Queries int
	// Seed drives the reference families (default 42).
	Seed uint64
}

// refPoints are FitQuery's two reference (k, m) points, deliberately away
// from typical production points so predictions extrapolate across (k, m)
// rather than interpolate; refRadius is their query radius.
var refPoints = [2]struct{ k, m int }{{12, 8}, {14, 12}}

const refRadius = 0.9

func (fc FitConfig) withDefaults() FitConfig {
	if fc.Queries == 0 {
		fc.Queries = 200
	}
	if fc.Seed == 0 {
		fc.Seed = 42
	}
	return fc
}

// refRun is one instrumented engine measurement.
type refRun struct {
	q2, q3                       float64 // summed phase ns
	collisions, unique, verified float64
	queries                      float64
	tables                       float64
}

// FitQuery refines the query-side constants by running the instrumented
// PLSH engine at two reference parameter points and solving the §7
// decomposition for the per-operation costs:
//
//	Q2 = CollisionNS·#collisions + TableProbeNS·L·q + ScanNSPerWord·(N/64)·q
//	Q3 = CheckNS·#unique + UniqueNS·#verified
//
// With two (k, m) points the two dominant Q2 unknowns (per-collision and
// per-table) separate, as do Q3's per-check and per-dot-product terms: the
// Hamming bound rejects a different share of the candidates at each. This
// is the regression-style calibration of Slaney et al. (cited by the
// paper, §2) in place of datasheet cycle counts; the reference points stay
// away from production parameters so Fig. 6/7 remain extrapolations.
func (c Costs) FitQuery(mat *sparse.Matrix, fc FitConfig) (Costs, error) {
	fc = fc.withDefaults()
	var runs [2]refRun
	for i, pt := range refPoints {
		r, err := c.referenceRun(mat, pt.k, pt.m, fc)
		if err != nil {
			return c, err
		}
		runs[i] = r
	}

	// Q2: keep the microbenchmarked per-collision and scan constants (both
	// small, credible terms) and fit the per-table probe cost by least
	// squares over the reference runs — an exact 2×2 solve would amplify
	// measurement noise through subtractive cancellation.
	scanW := c.ScanNSPerWord * float64((mat.Rows()+63)/64)
	var num, den float64
	for _, r := range runs {
		resid := r.q2 - c.CollisionNS*r.collisions - scanW*r.queries
		w := r.tables * r.queries
		num += resid * w
		den += w * w
	}
	if den > 0 {
		if probe := num / den; probe > 0 {
			c.TableProbeNS = probe
		}
	}

	// Q3: the two runs' equations solved for the check and the dot product.
	// Where they do not separate them — too alike to solve, or a solution
	// that noise made negative or that prices the check of a packed sketch
	// above the dot product over a document — the calibrated CheckNS stays
	// and the dot product's cost is what the check leaves of the pooled
	// time.
	a, b := runs[0], runs[1]
	if det := a.unique*b.verified - b.unique*a.verified; det != 0 {
		check := (a.q3*b.verified - b.q3*a.verified) / det
		dot := (a.unique*b.q3 - b.unique*a.q3) / det
		if check > 0 && dot > check {
			c.CheckNS, c.UniqueNS = check, dot
			return c, nil
		}
	}
	if v := a.verified + b.verified; v > 0 {
		if dot := (a.q3 + b.q3 - c.CheckNS*(a.unique+b.unique)) / v; dot > 0 {
			c.UniqueNS = dot
		}
	}
	return c, nil
}

func (c Costs) referenceRun(mat *sparse.Matrix, k, m int, fc FitConfig) (refRun, error) {
	fam, err := lshhash.NewFamily(lshhash.Params{Dim: mat.Dim, K: k, M: m, Seed: fc.Seed})
	if err != nil {
		return refRun{}, err
	}
	queries := make([]sparse.Vector, fc.Queries)
	stride := max(1, mat.Rows()/fc.Queries)
	for i := range queries {
		queries[i] = mat.Row((i * stride) % mat.Rows())
	}
	_, ph, stats, err := Measure(fam, mat, queries, refRadius)
	if err != nil {
		return refRun{}, err
	}
	return refRun{
		q2:         float64(ph.Q2NS),
		q3:         float64(ph.Q3NS),
		collisions: float64(stats.Collisions),
		unique:     float64(stats.Unique),
		verified:   float64(stats.Verified),
		queries:    float64(len(queries)),
		tables:     float64(m * (m - 1) / 2),
	}, nil
}

// Measure builds an index over mat with fam, and times the build and
// queries against the index the way the model's constants are defined: the
// build by phase as timedBuild runs it, then the queries on a one-worker engine
// (contention-free costs; parallelism is modeled separately) with phase
// timing on. It warms the engine up, runs the batch three times and returns
// each query phase's minimum over the runs (GC pauses and scheduler
// interference only ever inflate a run) and the work of one run, summed
// over the queries.
func Measure(fam *lshhash.Family, mat *sparse.Matrix, queries []sparse.Vector, radius float64) (core.BuildTimings, core.PhaseTimes, core.QueryStats, error) {
	st, tm, err := timedBuild(fam, mat)
	if err != nil {
		return tm, core.PhaseTimes{}, core.QueryStats{}, err
	}
	opts := core.QueryDefaults()
	opts.Radius = radius
	opts.Workers = 1
	opts.CollectPhases = true
	eng := core.NewEngine(st, mat, opts)
	eng.SearchBatchAppend(nil, queries[:min(32, len(queries))], core.SearchParams{})
	runtime.GC()

	var best core.PhaseTimes
	var sum core.QueryStats
	var buf []core.Neighbor
	for rep := 0; rep < 3; rep++ {
		eng.ResetPhases()
		for _, q := range queries {
			var s core.QueryStats
			buf, s = eng.SearchAppend(buf[:0], q, core.SearchParams{})
			if rep == 0 {
				sum.Collisions += s.Collisions
				sum.Unique += s.Unique
				sum.Verified += s.Verified
				sum.Results += s.Results
			}
		}
		ph := eng.Phases()
		if rep == 0 || ph.Q2NS < best.Q2NS {
			best.Q2NS = ph.Q2NS
		}
		if rep == 0 || ph.Q3NS < best.Q3NS {
			best.Q3NS = ph.Q3NS
		}
	}
	return tm, best, sum, nil
}
