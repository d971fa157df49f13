package expr

import (
	"context"
	"fmt"
	"io"
	"time"

	"plsh/internal/cluster"
	"plsh/internal/core"
	"plsh/internal/node"
	"plsh/internal/transport"
)

// Fig8 reproduces Figure 8: initialization and query time on a single node
// as the thread count grows (the paper reaches 7.2× on initialization and
// 7.8× on queries with 8 cores + SMT). The shape to verify: both curves
// fall near-linearly with threads until the physical core count.
func Fig8(o Options, w io.Writer) error {
	c := o.twitterCorpus()
	queries := o.queries(c)
	fam, err := lshFamily(o)
	if err != nil {
		return err
	}
	header(w, fmt.Sprintf("Figure 8: thread scaling (N=%d, %d queries)", o.N, len(queries)))
	tb := newTable(w)
	tb.row("threads", "init (ms)", "init speedup", "query (ms)", "query speedup")
	var initBase, queryBase time.Duration
	for _, threads := range []int{1, 2, 4, 8, 16} {
		initDur := timeBuild(func() { core.MustBuild(fam, c.Mat, core.BuildOptions{Workers: threads}) })
		eng, err := o.engine(fam, c.Mat, threads)
		if err != nil {
			return err
		}
		eng.SearchBatchAppend(nil, queries[:min(32, len(queries))], core.SearchParams{})
		t0 := time.Now()
		eng.SearchBatchAppend(nil, queries, core.SearchParams{})
		queryDur := time.Since(t0)
		if threads == 1 {
			initBase, queryBase = initDur, queryDur
		}
		tb.row(threads, ms(initDur),
			fmt.Sprintf("%.2fx", float64(initBase)/float64(initDur)),
			ms(queryDur),
			fmt.Sprintf("%.2fx", float64(queryBase)/float64(queryDur)))
	}
	tb.flush()
	fmt.Fprintf(w, "paper: 7.2x init / 7.8x query at 16 threads (8 cores + SMT)\n")
	return nil
}

// fig9NodeCounts is the sweep; the paper runs up to 100 physical nodes —
// here nodes are in-process, so memory bounds the count.
var fig9NodeCounts = []int{1, 2, 4, 8}

// Fig9 reproduces Figure 9: with data per node held constant, per-node
// initialization and query times as the node count grows. Perfect scaling
// is flat lines; the paper's load imbalance (max/avg) stays below 1.3.
func Fig9(o Options, w io.Writer) error {
	header(w, fmt.Sprintf("Figure 9: node scaling, %d docs/node, %d queries", o.N, o.Queries))
	tb := newTable(w)
	tb.row("nodes", "init min/avg/max (ms)", "query min/avg/max (ms)", "imbalance (max/avg)")
	ctx := context.Background()
	for _, nn := range fig9NodeCounts {
		clients := make([]transport.NodeClient, nn)
		initTimes := make([]time.Duration, nn)
		for i := 0; i < nn; i++ {
			n, err := o.node(o.N+1, true)
			if err != nil {
				return err
			}
			// Each node gets its own N documents (data per node constant).
			shard := Options{N: o.N, Dim: o.Dim, Seed: o.Seed + uint64(i)*101, Queries: o.Queries}
			docs := shard.twitterCorpus()
			vs := docsOf(docs)
			t0 := time.Now()
			if _, err := n.Insert(ctx, vs); err != nil {
				return err
			}
			if err := n.MergeNow(ctx); err != nil {
				return err
			}
			initTimes[i] = time.Since(t0)
			clients[i] = transport.NewLocal(n)
		}
		cl, err := cluster.NewWithOptions(ctx, clients, cluster.Options{WindowM: nn})
		if err != nil {
			return err
		}
		queries := o.queries(o.twitterCorpus())
		if _, _, err := cl.Search(ctx, queries[:min(32, len(queries))], node.SearchParams{}, cluster.BatchOptions{}); err != nil {
			return err
		}
		_, report, err := cl.Search(ctx, queries, node.SearchParams{}, cluster.BatchOptions{})
		if err != nil {
			return err
		}
		times := report.Times
		iMn, iMx, iAvg := minMaxAvg(initTimes)
		qMn, qMx, qAvg := minMaxAvg(times)
		imb := float64(qMx) / float64(qAvg)
		tb.row(nn,
			fmt.Sprintf("%s/%s/%s", ms(iMn), ms(iAvg), ms(iMx)),
			fmt.Sprintf("%s/%s/%s", ms(qMn), ms(qAvg), ms(qMx)),
			fmt.Sprintf("%.2f", imb))
	}
	tb.flush()
	fmt.Fprintf(w, "paper: flat lines to 100 nodes; load imbalance < 1.3; communication < 1%%\n")
	fmt.Fprintf(w, "note: nodes here share one machine, so query times rise with node count as\n")
	fmt.Fprintf(w, "they contend for the same cores — per-node work, not communication, is the load measure\n")
	return nil
}
