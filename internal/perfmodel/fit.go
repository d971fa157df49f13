package perfmodel

import (
	"plsh/internal/core"
	"plsh/internal/lshhash"
	"plsh/internal/sparse"
)

// FitConfig describes the reference runs used by FitQuery.
type FitConfig struct {
	// RefN is the subsample size (default: all rows).
	RefN int
	// The two reference parameter points (defaults (12, 8) and (14, 12))
	// — deliberately away from typical production points so predictions
	// extrapolate across (k, m) rather than interpolate.
	RefK1, RefM1 int
	RefK2, RefM2 int
	// Queries is the per-run reference query count (default 200).
	Queries int
	// Radius is the query radius (default 0.9).
	Radius float64
	// Seed drives sampling.
	Seed uint64
}

func (fc FitConfig) withDefaults(rows int) FitConfig {
	if fc.RefN <= 0 || fc.RefN > rows {
		fc.RefN = rows
	}
	if fc.RefN < 2048 {
		fc.RefN = 2048
	}
	if fc.RefN > rows {
		fc.RefN = rows
	}
	if fc.RefK1 == 0 {
		fc.RefK1 = 12
	}
	if fc.RefM1 == 0 {
		fc.RefM1 = 8
	}
	if fc.RefK2 == 0 {
		fc.RefK2 = 14
	}
	if fc.RefM2 == 0 {
		fc.RefM2 = 12
	}
	if fc.Queries == 0 {
		fc.Queries = 200
	}
	if fc.Radius == 0 {
		fc.Radius = 0.9
	}
	if fc.Seed == 0 {
		fc.Seed = 42
	}
	return fc
}

// refRun is one instrumented engine measurement.
type refRun struct {
	q2, q3             float64 // summed phase ns
	collisions, unique float64
	queries            float64
	tables             float64
}

// FitQuery refines the query-side constants by running the instrumented
// PLSH engine at two reference parameter points and solving the §7
// decomposition for the per-operation costs:
//
//	Q2 = CollisionNS·#collisions + TableProbeNS·L·q + ScanNSPerWord·(N/64)·q
//	Q3 = UniqueNS·#unique + Q3FixedNS·q
//
// With two (k, m) points the two dominant Q2 unknowns (per-collision and
// per-table) separate, as do Q3's per-candidate and per-query terms. This
// is the regression-style calibration of Slaney et al. (cited by the
// paper, §2) in place of datasheet cycle counts; the reference points stay
// away from production parameters so Fig. 6/7 remain extrapolations.
func (c Costs) FitQuery(mat *sparse.Matrix, fc FitConfig) (Costs, error) {
	fc = fc.withDefaults(mat.Rows())

	sub := mat
	if fc.RefN < mat.Rows() {
		sub = sparse.NewMatrix(mat.Dim, fc.RefN, fc.RefN*8)
		for i := 0; i < fc.RefN; i++ {
			sub.AppendRow(mat.Row(i))
		}
	}

	points := [2]struct{ k, m int }{{fc.RefK1, fc.RefM1}, {fc.RefK2, fc.RefM2}}
	var runs [2]refRun
	for i, pt := range points {
		r, err := c.referenceRun(sub, pt.k, pt.m, fc)
		if err != nil {
			return c, err
		}
		runs[i] = r
	}

	// Q2: keep the microbenchmarked per-collision and scan constants (both
	// small, credible terms) and fit the per-table probe cost by least
	// squares over the reference runs — an exact 2×2 solve would amplify
	// measurement noise through subtractive cancellation.
	scanW := c.ScanNSPerWord * float64((fc.RefN+63)/64)
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

	// Q3: pooled per-candidate cost across the runs.
	if u := runs[0].unique + runs[1].unique; u > 0 {
		if uniq := (runs[0].q3 + runs[1].q3) / u; uniq > 0 {
			c.UniqueNS = uniq
		}
	}
	return c, nil
}

func (c Costs) referenceRun(sub *sparse.Matrix, k, m int, fc FitConfig) (refRun, error) {
	fam, err := lshhash.NewFamily(lshhash.Params{Dim: sub.Dim, K: k, M: m, Seed: fc.Seed})
	if err != nil {
		return refRun{}, err
	}
	st, err := core.Build(fam, sub, core.Defaults())
	if err != nil {
		return refRun{}, err
	}
	opts := core.QueryDefaults()
	opts.Radius = fc.Radius
	opts.Workers = 1 // contention-free constants; parallelism is modeled separately
	opts.CollectPhases = true
	eng := core.NewEngine(st, sub, opts)

	queries := make([]sparse.Vector, fc.Queries)
	stride := max(1, sub.Rows()/fc.Queries)
	for i := range queries {
		queries[i] = sub.Row((i * stride) % sub.Rows())
	}
	eng.SearchBatchAppend(nil, queries[:min(32, len(queries))], core.SearchParams{}) // warm up

	// Best of three: GC pauses and scheduler interference inflate
	// individual batches; the minimum is the interference-free cost.
	r := refRun{
		queries: float64(len(queries)),
		tables:  float64(m * (m - 1) / 2),
	}
	stats := make([]core.QueryStats, len(queries))
	var buf []core.Neighbor
	for rep := 0; rep < 3; rep++ {
		eng.ResetPhases()
		for i, q := range queries {
			buf, stats[i] = eng.SearchAppend(buf[:0], q, core.SearchParams{})
		}
		ph := eng.Phases()
		if rep == 0 || float64(ph.Q2NS) < r.q2 {
			r.q2 = float64(ph.Q2NS)
		}
		if rep == 0 || float64(ph.Q3NS) < r.q3 {
			r.q3 = float64(ph.Q3NS)
		}
	}
	for _, s := range stats {
		r.collisions += float64(s.Collisions)
		r.unique += float64(s.Unique)
	}
	return r, nil
}
