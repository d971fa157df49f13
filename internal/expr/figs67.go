package expr

import (
	"fmt"
	"io"

	"plsh/internal/corpus"
	"plsh/internal/lshhash"
	"plsh/internal/perfmodel"
)

// Fig6 reproduces Figure 6: estimated vs actual runtimes for PLSH creation
// (hashing, Steps I1–I3) and querying (Q2 bitvector, Q3 search). The paper
// finds the model within 15% on Twitter data (25% on Wikipedia). Estimates
// here are single-threaded totals, so the measured side uses one worker
// for construction and for queries.
func Fig6(o Options, w io.Writer) error {
	c := o.twitterCorpus()
	queries := o.queries(c)
	fam, err := lshFamily(o)
	if err != nil {
		return err
	}
	header(w, fmt.Sprintf("Figure 6: model vs measured (N=%d, k=%d, m=%d, %d queries)", o.N, o.K, o.M, len(queries)))

	wl := perfmodel.SampleWorkload(c.Mat, min(o.Queries, 1000), min(o.N, 1000), o.Seed+7)
	cc := perfmodel.DefaultCalibration(o.Dim, wl.MeanNNZ, o.N, o.K, o.M)
	cc.Seed = o.Seed + 9
	costs := perfmodel.CalibrateFor(cc)
	// Query-side constants are fitted from instrumented reference runs at
	// deliberately different configurations ((k, m) = (12, 8) and (14, 12))
	// and then extrapolated to (k, m) here — the Slaney-style regression the
	// paper cites (§2).
	costs, err = costs.FitQuery(c.Mat, perfmodel.FitConfig{Seed: o.Seed + 11})
	if err != nil {
		return err
	}
	// Construction constants come from core's own build over synthetic
	// documents at the same (N, k, m); the measured build below runs over
	// the corpus.
	costs = costs.CalibrateBuild(cc)

	// Creation and queries: the model vs one worker's measured phases, the
	// build timed as CalibrateBuild times its own and the queries on the
	// index it built (the paper likewise models per-core work and divides
	// by core count).
	tm, ph, _, err := perfmodel.Measure(fam, c.Mat, queries, o.Radius)
	if err != nil {
		return err
	}
	be := costs.EstimateBuild(wl, o.K, o.M)
	tb := newTable(w)
	tb.row("creation phase", "estimated (ms)", "actual (ms)", "error")
	rows := []struct {
		name     string
		est, act float64
	}{
		{"hashing", be.HashNS, float64(tm.HashNS)},
		{"step I1", be.I1NS, float64(tm.I1NS)},
		{"step I2", be.I2NS, float64(tm.I2NS)},
		{"step I3", be.I3NS, float64(tm.I3NS)},
		{"total", be.TotalNS, float64(tm.HashNS + tm.I1NS + tm.I2NS + tm.I3NS)},
	}
	for _, r := range rows {
		tb.row(r.name, msf(r.est), msf(r.act), fmt.Sprintf("%.0f%%", perfmodel.RelativeError(r.est, r.act)*100))
	}
	tb.flush()

	qe := costs.EstimateQuery(wl, o.K, o.M)
	nq := float64(len(queries))

	tb = newTable(w)
	tb.row("query phase", "estimated (ms)", "actual (ms)", "error")
	tb.row("bitvector (Q2)", msf(qe.Q2NS*nq), msf(float64(ph.Q2NS)), fmt.Sprintf("%.0f%%", perfmodel.RelativeError(qe.Q2NS*nq, float64(ph.Q2NS))*100))
	tb.row("search (Q3)", msf(qe.Q3NS*nq), msf(float64(ph.Q3NS)), fmt.Sprintf("%.0f%%", perfmodel.RelativeError(qe.Q3NS*nq, float64(ph.Q3NS))*100))
	tb.row("total", msf(qe.TotalNS*nq), msf(float64(ph.Q2NS+ph.Q3NS)), fmt.Sprintf("%.0f%%", perfmodel.RelativeError(qe.TotalNS*nq, float64(ph.Q2NS+ph.Q3NS))*100))
	tb.flush()
	fmt.Fprintf(w, "paper: model within 15%% (Twitter) / 25%% (Wikipedia)\n")
	return nil
}

// fig7Points are the paper's Figure 7 parameter sweep.
var fig7Points = []struct{ K, M int }{{12, 21}, {14, 29}, {16, 40}, {18, 55}}

// Fig7 reproduces Figure 7: estimated vs actual query runtimes for the
// batch across (k, m) points, on both the Twitter-like and Wikipedia-like
// corpora. The shape to verify: the model tracks the measured times as
// parameters change (relative ordering preserved), on both datasets.
func Fig7(o Options, w io.Writer) error {
	type ds struct {
		name string
		col  *corpus.Collection
	}
	datasets := []ds{
		{"twitter", o.twitterCorpus()},
		{"wikipedia", o.wikipediaCorpus()},
	}
	header(w, fmt.Sprintf("Figure 7: model across (k,m) (N=%d, %d queries)", o.N, o.Queries))
	tb := newTable(w)
	tb.row("dataset", "(k,m)", "L", "estimated (ms)", "actual (ms)", "error")
	for _, d := range datasets {
		queries := d.col.SampleQueries(o.Queries, o.Seed+1)
		wl := perfmodel.SampleWorkload(d.col.Mat, min(o.Queries, 1000), min(o.N, 1000), o.Seed+7)
		for _, pt := range fig7Points {
			cc := perfmodel.DefaultCalibration(o.Dim, wl.MeanNNZ, o.N, pt.K, pt.M)
			cc.Seed = o.Seed + 9
			costs := perfmodel.CalibrateFor(cc)
			costs, err := costs.FitQuery(d.col.Mat, perfmodel.FitConfig{Seed: o.Seed + 11})
			if err != nil {
				return err
			}
			p := lshhash.Params{Dim: o.Dim, K: pt.K, M: pt.M, Seed: o.Seed}
			fam, err := lshhash.NewFamily(p)
			if err != nil {
				return err
			}
			_, ph, _, err := perfmodel.Measure(fam, d.col.Mat, queries, o.Radius)
			if err != nil {
				return err
			}
			actual := float64(ph.Q2NS + ph.Q3NS)
			est := costs.EstimateQuery(wl, pt.K, pt.M).TotalNS * float64(len(queries))
			tb.row(d.name, fmt.Sprintf("(%d,%d)", pt.K, pt.M), p.L(),
				msf(est), msf(actual),
				fmt.Sprintf("%.0f%%", perfmodel.RelativeError(est, actual)*100))
		}
	}
	tb.flush()
	fmt.Fprintf(w, "paper: errors <15%% Twitter, <25%% Wikipedia; relative ordering across (k,m) preserved\n")
	return nil
}
