package expr

import (
	"fmt"
	"io"
	"time"

	"plsh/internal/baseline"
	"plsh/internal/core"
)

// Table2 reproduces Table 2: average distance computations per query and
// total runtime for exhaustive search, an inverted index, and PLSH, over
// the query set. The paper (10.5M tweets, 1000 queries, one node) reports:
//
//	Exhaustive search   10,579,994 comps   115.35 ms
//	Inverted index         847,028 comps   >21.81 ms
//	PLSH                   120,346 comps     1.42 ms
//
// — i.e. PLSH ≈15× faster than the inverted index's distance phase and
// ≈81× faster than exhaustive search. The shape to verify at reduced scale:
// the same ordering, with PLSH's candidate count a small fraction of N.
func Table2(o Options, w io.Writer) error {
	c := o.twitterCorpus()
	queries := o.queries(c)
	header(w, fmt.Sprintf("Table 2: deterministic baselines vs PLSH (N=%d, %d queries)", o.N, len(queries)))

	fam, err := lshFamily(o)
	if err != nil {
		return err
	}
	eng, err := o.engine(fam, c.Mat, o.Workers)
	if err != nil {
		return err
	}

	ex := baseline.NewExhaustive(c.Mat, o.Radius, o.Workers)
	inv := baseline.NewInverted(c.Mat, o.Radius, o.Workers)

	t0 := time.Now()
	exRes := ex.QueryBatch(queries)
	exDur := time.Since(t0)

	t0 = time.Now()
	invRes := inv.QueryBatch(queries)
	invDur := time.Since(t0)

	t0 = time.Now()
	plshStats := make([]core.QueryStats, len(queries))
	eng.Pool().Run(len(queries), func(task, _ int) {
		_, plshStats[task] = eng.SearchAppend(nil, queries[task], core.SearchParams{})
	})
	plshDur := time.Since(t0)

	var exC, invC, plshC, plshDots float64
	for i := range queries {
		exC += float64(exRes[i].DistComps)
		invC += float64(invRes[i].DistComps)
		plshC += float64(plshStats[i].Unique)
		plshDots += float64(plshStats[i].Verified)
	}
	nq := float64(len(queries))

	// A baseline computes a dot product for every distance it compares;
	// PLSH compares every unique candidate's sign bits with the query's
	// and computes the dot products of those within the Hamming bound.
	tb := newTable(w)
	tb.row("algorithm", "avg #distance comps", "avg #dot products", "total runtime (ms)", "ms/query")
	tb.row("exhaustive", fmt.Sprintf("%.1f", exC/nq), fmt.Sprintf("%.1f", exC/nq), ms(exDur), fmt.Sprintf("%.3f", float64(exDur.Nanoseconds())/nq/1e6))
	tb.row("inverted index", fmt.Sprintf("%.1f", invC/nq), fmt.Sprintf("%.1f", invC/nq), ms(invDur), fmt.Sprintf("%.3f", float64(invDur.Nanoseconds())/nq/1e6))
	tb.row("plsh", fmt.Sprintf("%.1f", plshC/nq), fmt.Sprintf("%.1f", plshDots/nq), ms(plshDur), fmt.Sprintf("%.3f", float64(plshDur.Nanoseconds())/nq/1e6))
	tb.flush()

	fmt.Fprintf(w, "speedup vs exhaustive: %.1fx   vs inverted: %.1fx\n",
		float64(exDur)/float64(plshDur), float64(invDur)/float64(plshDur))
	fmt.Fprintf(w, "paper (N=10.5M): comps 10.58M / 847K / 120K; runtime 115.35 / >21.81 / 1.42 ms; 81x / 15x\n")
	return nil
}
