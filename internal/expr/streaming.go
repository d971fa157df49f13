package expr

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"plsh/internal/corpus"
	"plsh/internal/node"
	"plsh/internal/sparse"
)

// Streaming reproduces the §8.6 measurements: the cost of inserting
// 100K-tweet chunks into the delta table (~400 ms in the paper), the worst-
// case merge (~15 s when static is nearly full), and the resulting share of
// wall time spent on maintenance at Twitter's 400M tweets/day with M=4
// insert nodes (~2% in the paper). Chunk and capacity sizes scale with -n.
func Streaming(o Options, w io.Writer) error {
	capacity := o.N
	chunk := max(1, capacity/100) // paper: 100K chunks into C=10M nodes
	deltaCap := capacity / 10     // η = 0.1
	header(w, fmt.Sprintf("Streaming (§8.6): C=%d, chunk=%d, η·C=%d", capacity, chunk, deltaCap))

	n, err := o.node(capacity+1, false)
	if err != nil {
		return err
	}
	ctx := context.Background()

	// Fill static to 90% (the worst case of §6.3).
	stream := corpus.NewStream(corpus.Twitter(0, o.Dim, o.Seed+77))
	fill := capacity * 9 / 10
	static := collectVecs(stream, fill)
	if _, err := n.Insert(ctx, static); err != nil {
		return err
	}
	if err := n.MergeNow(ctx); err != nil {
		return err
	}

	// Measure chunk inserts into the delta until it reaches η·C.
	var insertTotal time.Duration
	chunks := 0
	for n.DeltaLen()+chunk <= deltaCap {
		vs := collectVecs(stream, chunk)
		t0 := time.Now()
		if _, err := n.Insert(ctx, vs); err != nil {
			return err
		}
		insertTotal += time.Since(t0)
		chunks++
	}
	insertPerChunk := insertTotal / time.Duration(max(1, chunks))

	// Worst-case merge: static ~90%, delta full. The merge runs in the
	// background (MergeNow only waits for quiescence), so we sample query
	// latency *while it is in flight* — the number the snapshot-based
	// concurrency model exists to bound. The paper buffers queries for the
	// whole merge, so its during-merge p99 equals the merge duration; here
	// it should stay near the steady-state query time.
	queries := collectVecs(stream, 16)
	mergeErr := make(chan error, 1)
	t0 := time.Now()
	go func() { mergeErr <- n.MergeNow(ctx) }()
	var during []time.Duration
	for done := false; !done; {
		select {
		case err := <-mergeErr:
			if err != nil {
				return err
			}
			done = true
		default:
			q0 := time.Now()
			if _, err := n.SearchAppend(ctx, nil, queries[len(during)%len(queries)], node.SearchParams{}); err != nil {
				return err
			}
			during = append(during, time.Since(q0))
		}
	}
	mergeDur := time.Since(t0)
	sort.Slice(during, func(i, j int) bool { return during[i] < during[j] })
	pct := func(p float64) time.Duration {
		if len(during) == 0 {
			return 0
		}
		i := int(p * float64(len(during)-1))
		return during[i]
	}

	tb := newTable(w)
	tb.row("measurement", "value")
	tb.row(fmt.Sprintf("insert per %d-doc chunk (ms)", chunk), ms(insertPerChunk))
	tb.row("chunks absorbed before merge", chunks)
	tb.row("worst-case merge (ms)", ms(mergeDur))
	tb.row("queries answered during merge", len(during))
	tb.row("query p50 during merge (ms)", ms(pct(0.50)))
	tb.row("query p99 during merge (ms)", ms(pct(0.99)))
	tb.flush()

	// Overhead accounting at Twitter rates, scaled: the paper processes
	// 400M tweets/day over M=4 insert nodes; each node absorbs η·C tweets
	// between merges. Maintenance fraction = (insert+merge time per η·C
	// tweets) / (wall time for η·C tweets to arrive at the node).
	const tweetsPerDay = 400e6
	const insertNodes = 4.0
	perNodeRate := tweetsPerDay / 86400 / insertNodes // tweets/s at one node
	arrivalWindow := float64(deltaCap) / perNodeRate  // seconds between merges
	maintenance := insertTotal.Seconds() + mergeDur.Seconds()
	fmt.Fprintf(w, "at Twitter rates (400M/day, M=4): η·C=%d tweets arrive in %.0f s;\n", deltaCap, arrivalWindow)
	fmt.Fprintf(w, "maintenance (inserts+merge) = %.2f s → %.2f%% overhead\n",
		maintenance, 100*maintenance/arrivalWindow)
	fmt.Fprintf(w, "paper: 400 ms per 100K chunk, 15 s worst-case merge, ≈2%% total overhead\n")
	return nil
}

func collectVecs(s *corpus.Stream, n int) []sparse.Vector {
	out := make([]sparse.Vector, n)
	for i := range out {
		out[i] = s.NextVector()
	}
	return out
}
