package perfmodel

import (
	"testing"
	"time"

	"plsh/internal/corpus"
	"plsh/internal/lshhash"
	"plsh/internal/oracle"
	"plsh/internal/sparse"
)

// TestExpVerifiedMatchesTheOracle: on a fixed corpus, with the distance of
// every query to every row as the sample — so the estimate carries no
// sampling error, only the hash's — the DP's E[#verified] is within 5 % of
// the oracle's mean Verified, averaged over four hash families, at a
// geometry whose bound drops a share of the candidates: at (8, 8) a
// candidate may differ from the query in 24 of the 32 sign bits, and T is
// 16 at the radius.
func TestExpVerifiedMatchesTheOracle(t *testing.T) {
	const k, m, queries, seeds = 8, 8, 150, 4
	cfg := corpus.Twitter(1500, 2000, 21)
	cfg.NearDupRate = 0.2
	col := corpus.Generate(cfg)
	rows := make([]sparse.Vector, col.Mat.Rows())
	for i := range rows {
		rows[i] = col.Mat.Row(i)
	}
	w := Workload{N: len(rows), Radius: 0.9}
	qs := make([]sparse.Vector, queries)
	for i := range qs {
		qs[i] = rows[i*7%len(rows)]
		for _, r := range rows {
			w.Dists = append(w.Dists, sparse.AngularDistance(sparse.Dot(qs[i], r)))
		}
	}
	t0 := time.Now()
	est := w.ExpVerified(k, m)
	took := time.Since(t0)
	var verified, unique float64
	for s := range seeds {
		fam, err := lshhash.NewFamily(lshhash.Params{Dim: 2000, K: k, M: m, Seed: uint64(100 + s)})
		if err != nil {
			t.Fatal(err)
		}
		o := oracle.New(fam, rows...)
		for _, q := range qs {
			_, st := o.Answers(q, w.Radius, 0)
			verified += float64(st.Verified)
			unique += float64(st.Unique)
		}
	}
	verified /= seeds * queries
	unique /= seeds * queries
	t.Logf("E[#verified] %.2f (in %v over %d distances), oracle %.2f of %.2f unique; E[#unique] %.2f",
		est, took, len(w.Dists), verified, unique, w.ExpUnique(k, m))
	if verified >= unique {
		t.Fatalf("the bound dropped no candidate (%.2f of %.2f): the case tests nothing", verified, unique)
	}
	if e := RelativeError(est, verified); e > 0.05 {
		t.Errorf("E[#verified] %.2f vs the oracle's %.2f: off by %.1f%%", est, verified, 100*e)
	}
}

// TestExpVerifiedGridIsExact: the grid ExpVerified interpolates on gives
// the sum of verifiedProb over the sampled distances to 10⁻⁴.
func TestExpVerifiedGridIsExact(t *testing.T) {
	w, _ := testWorkload(t, 1500)
	w.Radius = 0.9
	for _, g := range []struct{ k, m int }{{8, 8}, {16, 16}, {12, 20}} {
		bound := lshhash.HammingBound(g.k, g.m, w.Radius)
		scratch := make([]float64, 2*(bound+1))
		var exact float64
		for _, d := range w.Dists {
			exact += verifiedProb(d, g.k, g.m, bound, scratch)
		}
		exact *= float64(w.N) / float64(len(w.Dists))
		if got := w.ExpVerified(g.k, g.m); RelativeError(got, exact) > 1e-4 {
			t.Errorf("(%d, %d): ExpVerified %.6g, the exact sum %.6g", g.k, g.m, got, exact)
		}
	}
}
