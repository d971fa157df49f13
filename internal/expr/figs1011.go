package expr

import (
	"context"
	"fmt"
	"io"
	"time"

	"plsh/internal/core"
	"plsh/internal/node"
	"plsh/internal/sparse"
)

// Fig10 reproduces Figure 10: latency vs throughput as the query batch
// size grows (the paper sweeps 10→1000 in steps of 10; throughput
// saturates around 30 queries/batch at ~700 q/s on their node). The shape
// to verify: throughput climbs steeply with small batches, then plateaus
// while latency keeps growing linearly.
func Fig10(o Options, w io.Writer) error {
	c := o.twitterCorpus()
	allQueries := c.SampleQueries(1000, o.Seed+1)
	fam, err := lshFamily(o)
	if err != nil {
		return err
	}
	eng, err := o.engine(fam, c.Mat, o.Workers)
	if err != nil {
		return err
	}
	eng.SearchBatchAppend(nil, allQueries[:64], core.SearchParams{})

	header(w, fmt.Sprintf("Figure 10: latency vs throughput (N=%d)", o.N))
	tb := newTable(w)
	tb.row("batch size", "latency (ms)", "throughput (queries/s)")
	for _, bs := range []int{1, 5, 10, 20, 30, 50, 100, 200, 500, 1000} {
		// Repeat small batches for a stable measurement, rotating through
		// distinct queries so repetition does not turn into a cache-hot
		// replay of one query.
		reps := max(1, 512/bs)
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			off := (r * bs) % (len(allQueries) - bs + 1)
			eng.SearchBatchAppend(nil, allQueries[off:off+bs], core.SearchParams{})
		}
		total := time.Since(t0)
		latency := total / time.Duration(reps)
		throughput := float64(bs*reps) / total.Seconds()
		tb.row(bs, ms(latency), fmt.Sprintf("%.0f", throughput))
	}
	tb.flush()
	fmt.Fprintf(w, "paper: throughput saturates ≈700 q/s beyond ~30 queries/batch; latency grows linearly\n")
	return nil
}

// Fig11 reproduces Figure 11: query time as data accumulates in the
// streaming delta table, at 50%% and 90%% static fill, against the
// 100%%-static-at-capacity line. The paper's bound: even in the worst case
// (static nearly full, delta at its η=10%% cap) queries stay within 1.5× of
// fully-static performance, and at 50%% static fill there is no penalty.
func Fig11(o Options, w io.Writer) error {
	capacity := o.N
	deltaCap := capacity / 10 // η = 0.1
	queries := o.queries(o.twitterCorpus())

	// Reference: 100% static at capacity.
	refDur, err := fig11Run(o, capacity, 0, queries)
	if err != nil {
		return err
	}
	header(w, fmt.Sprintf("Figure 11: streaming query overhead (C=%d, η·C=%d, %d queries)", capacity, deltaCap, len(queries)))
	fmt.Fprintf(w, "100%% static reference: %s ms\n", ms(refDur))

	tb := newTable(w)
	tb.row("% of delta cap filled", "50% static (ms)", "vs ref", "90% static (ms)", "vs ref")
	for _, pct := range []int{0, 20, 40, 60, 80, 100} {
		deltaN := deltaCap * pct / 100
		d50, err := fig11Run(o, capacity/2, deltaN, queries)
		if err != nil {
			return err
		}
		d90, err := fig11Run(o, capacity*9/10, deltaN, queries)
		if err != nil {
			return err
		}
		tb.row(fmt.Sprintf("%d%%", pct),
			ms(d50), fmt.Sprintf("%.2fx", float64(d50)/float64(refDur)),
			ms(d90), fmt.Sprintf("%.2fx", float64(d90)/float64(refDur)))
	}
	tb.flush()
	fmt.Fprintf(w, "paper: ≤1.3x at 90%% static in the worst case (bound 1.5x); no penalty at 50%% static\n")
	return nil
}

// fig11Run builds a node with staticN docs merged into the static
// structure and deltaN docs held in the delta table, then times the batch.
func fig11Run(o Options, staticN, deltaN int, queries []sparse.Vector) (time.Duration, error) {
	n, err := o.node(staticN+deltaN+1, false)
	if err != nil {
		return 0, err
	}
	ctx := context.Background()
	data := Options{N: staticN + deltaN + 1, Dim: o.Dim, Seed: o.Seed + 33}.twitterCorpus()
	vs := docsOf(data)
	if staticN > 0 {
		if _, err := n.Insert(ctx, vs[:staticN]); err != nil {
			return 0, err
		}
		if err := n.MergeNow(ctx); err != nil {
			return 0, err
		}
	}
	if deltaN > 0 {
		if _, err := n.Insert(ctx, vs[staticN:staticN+deltaN]); err != nil {
			return 0, err
		}
	}
	search := func(qs []sparse.Vector) error {
		_, err := n.SearchBatch(ctx, qs, node.SearchParams{})
		return err
	}
	if err := search(queries[:min(32, len(queries))]); err != nil { // warm up
		return 0, err
	}
	// Best of three: GC from the node builds otherwise lands in arbitrary
	// points of the sweep.
	best := time.Duration(1<<62 - 1)
	for r := 0; r < 3; r++ {
		t0 := time.Now()
		if err := search(queries); err != nil {
			return 0, err
		}
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return best, nil
}
