// Benchmarks of the query path and of kernels the paper's figures do not
// isolate.
// The tables and figures of the evaluation (§8) are reproduced by
// cmd/plsh-bench (internal/expr), which prints each beside the paper's
// numbers; this file holds what they do not measure. Fixtures are cached
// across b.N re-runs, so setup cost is paid once per configuration.
package plsh

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"plsh/internal/core"
	"plsh/internal/corpus"
	"plsh/internal/lshhash"
	"plsh/internal/node"
	"plsh/internal/sparse"
)

// Bench scale: large enough that candidate sets behave realistically,
// small enough that the full suite finishes in minutes.
const (
	benchN    = 20000
	benchDim  = 20000
	benchQ    = 200
	benchSeed = 42
)

type fixture struct {
	col     *corpus.Collection
	queries []sparse.Vector
}

var (
	fixOnce sync.Once
	fix     *fixture
)

func benchFixture(b *testing.B) *fixture {
	b.Helper()
	fixOnce.Do(func() {
		col := corpus.Generate(corpus.Twitter(benchN, benchDim, benchSeed))
		fix = &fixture{col: col, queries: col.SampleQueries(benchQ, benchSeed+1)}
	})
	return fix
}

// reportPerQuery converts total batch nanoseconds into a per-query metric.
func reportPerQuery(b *testing.B, queries int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*queries), "ns/query")
}

// Top-K broadcast: each node sorts its answers and cuts them at k, and the
// coordinator sorts the gathered group lists and cuts them at k again.
func BenchmarkClusterQueryTopK(b *testing.B) {
	f := benchFixture(b)
	perNode := 4000
	const nodes = 4
	cl, err := NewCluster(nodes, nodes, Config{
		Dim: benchDim, K: 12, M: 10, Capacity: perNode + 1, Seed: benchSeed,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Insert(bg, docsSlice(f.col, nodes*perNode)); err != nil {
		b.Fatal(err)
	}
	if err := cl.Merge(bg); err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{10, 100} {
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, q := range f.queries[:32] {
					if _, err := cl.Search(bg, q, WithK(k)); err != nil {
						b.Fatal(err)
					}
				}
			}
			reportPerQuery(b, 32)
		})
	}
}

// BenchmarkSearchTopK measures the unified Search path's bounded query
// shape and prices the request-scoped radius: the "construction" arm
// searches at the store's own radius, the "override" arm forces the same
// effective radius onto a store built with a different one via
// WithRadius. The two arms do identical candidate work — the per-request
// parameter costs one struct copy, not a rebuild — so their ns/search-topk
// metrics should track each other.
func BenchmarkSearchTopK(b *testing.B) {
	f := benchFixture(b)
	const radius = 0.9
	mkStore := func(consRadius float64) *Store {
		s, err := NewStore(Config{
			Dim: benchDim, K: 12, M: 10, Radius: consRadius,
			Capacity: benchN, Seed: benchSeed,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Insert(bg, docsSlice(f.col, benchN)); err != nil {
			b.Fatal(err)
		}
		if err := s.Merge(bg); err != nil {
			b.Fatal(err)
		}
		return s
	}
	arms := []struct {
		name       string
		consRadius float64
		opts       []SearchOption
	}{
		// Radius fixed at construction — the pre-redesign operating point.
		{"construction", radius, []SearchOption{WithK(10)}},
		// Same effective radius, but request-scoped onto a store whose
		// construction radius differs.
		{"override", 1.3, []SearchOption{WithK(10), WithRadius(radius)}},
	}
	queries := f.queries[:64]
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			s := mkStore(arm.consRadius)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, q := range queries {
					if _, err := s.Search(bg, q, arm.opts...); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(queries)), "ns/search-topk")
		})
	}
}

// BenchmarkSearchReplicated prices the replica layer on the broadcast
// path: the same corpus and bounded batch searched through a single-copy
// cluster (replicas=1), an R=2 cluster (one member answers per group —
// the mirroring costs inserts, not searches), and an R=2 cluster with
// the tail hedge armed (on a healthy cluster the hedge timer virtually
// never fires, so its cost should be noise).
func BenchmarkSearchReplicated(b *testing.B) {
	f := benchFixture(b)
	const endpoints = 4
	const docsN = 8000
	queries := f.queries[:64]
	arms := []struct {
		name     string
		replicas int
		opts     []SearchOption
	}{
		{"replicas=1", 1, []SearchOption{WithK(10)}},
		{"replicas=2", 2, []SearchOption{WithK(10)}},
		{"replicas=2-hedged", 2, []SearchOption{WithK(10), WithHedge(50 * time.Millisecond)}},
	}
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			cl, err := NewCluster(endpoints, 0, Config{
				Dim: benchDim, K: 12, M: 10, Capacity: docsN,
				Replicas: arm.replicas, Seed: benchSeed,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()
			if _, err := cl.Insert(bg, docsSlice(f.col, docsN)); err != nil {
				b.Fatal(err)
			}
			if err := cl.Merge(bg); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := cl.SearchBatch(bg, queries, arm.opts...); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(queries)), "ns/replicated-search")
		})
	}
}

// BenchmarkSearchRouted prices data-aware query routing against the
// scatter broadcast on the same fleet shapes: 4 and 16 single-copy
// groups, same corpus, same top-10 queries. The partitioned arms place
// by LSH signature and probe only the groups the router proves can hold
// in-radius candidates (RoutingRecall 0.7 at the default radius), so
// they should beat their scatter twins on both ns and B/op — the win
// grows with the group count, since scatter pays every group on every
// query.
func BenchmarkSearchRouted(b *testing.B) {
	f := benchFixture(b)
	const docsN = 8000
	queries := f.queries[:64]
	arms := []struct {
		name   string
		groups int
		part   bool
	}{
		{"scatter-g4", 4, false},
		{"part-g4", 4, true},
		{"scatter-g16", 16, false},
		{"part-g16", 16, true},
	}
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			cfg := Config{
				Dim: benchDim, K: 12, M: 10, Capacity: docsN, Seed: benchSeed,
			}
			if arm.part {
				cfg.Placement = PlacementPartitioned
				cfg.RoutingRecall = 0.7
			}
			// windowM = groups: the scatter arms spread the corpus over the
			// whole fleet (the default 4-group window would leave most groups
			// empty and make the broadcast artificially cheap); partitioned
			// placement ignores the window.
			cl, err := NewCluster(arm.groups, arm.groups, cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()
			if _, err := cl.Insert(bg, docsSlice(f.col, docsN)); err != nil {
				b.Fatal(err)
			}
			if err := cl.Merge(bg); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := cl.SearchBatch(bg, queries, WithK(10)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(queries)), "ns/routed-search")
		})
	}
}

// BenchmarkOneGroup is the coordinator's fixed cost at one group: the
// same 20 000 merged rows in a Store and in NewCluster(1, 1, cfg), timed
// as single top-10 queries and as batches of 16. A Store's SearchBatch is
// that one-group cluster's, so the two batch arms should read alike; a
// Store's Search stays on the node, and the cluster arm beside it prices
// a batch of one through the coordinator. One op is one call, so
// allocs/op is per query for Search and per batch for SearchBatch.
func BenchmarkOneGroup(b *testing.B) {
	f := benchFixture(b)
	cfg := Config{Dim: benchDim, K: 12, M: 10, Capacity: benchN, Seed: benchSeed}
	s, err := NewStore(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	cl, err := NewCluster(1, 1, cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	for _, idx := range []Index{s, cl} {
		if _, err := idx.Insert(bg, docsSlice(f.col, benchN)); err != nil {
			b.Fatal(err)
		}
		if err := idx.Merge(bg); err != nil {
			b.Fatal(err)
		}
	}
	queries := f.queries[:64]
	const batch = 16
	for _, arm := range []struct {
		name string
		idx  Index
	}{{"store", s}, {"cluster", cl}} {
		b.Run(arm.name+"/Search", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := arm.idx.Search(bg, queries[i%len(queries)], WithK(10)); err != nil {
					b.Fatal(err)
				}
			}
			reportPerQuery(b, 1)
		})
		b.Run(arm.name+"/SearchBatch16", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				at := i % (len(queries) / batch) * batch
				if _, _, err := arm.idx.SearchBatch(bg, queries[at:at+batch], WithK(10)); err != nil {
					b.Fatal(err)
				}
			}
			reportPerQuery(b, batch)
		})
	}
}

func docsSlice(c *corpus.Collection, n int) []sparse.Vector {
	out := make([]sparse.Vector, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, c.Mat.Row(i%c.Mat.Rows()))
	}
	return out
}

// --- Non-blocking merges: query latency while rebuilds run ---------------

// BenchmarkQueryDuringMerge measures single-query latency with static
// rebuilds continuously in flight: a churn goroutine cycles delta fills
// and forced merges for the whole measurement, so most samples land while
// a background merge is running. Under the paper's buffer-queries-during-
// merge design this number would approach the merge duration; under the
// snapshot model it should stay near ns/query-idle, the same loop timed
// on the same node before the churn starts.
func BenchmarkQueryDuringMerge(b *testing.B) {
	f := benchFixture(b)
	cfg := node.Config{
		Params:    lshhash.Params{Dim: benchDim, K: 12, M: 10, Seed: benchSeed},
		Capacity:  benchN * 4,
		AutoMerge: false,
		Build:     core.Defaults(),
		Query:     core.QueryDefaults(),
	}
	n, err := node.Open(bg, cfg)
	if err != nil {
		b.Fatal(err)
	}
	base := docsSlice(f.col, benchN)
	if _, err := n.Insert(bg, base); err != nil {
		b.Fatal(err)
	}
	if err := n.MergeNow(bg); err != nil {
		b.Fatal(err)
	}
	searchLoop := func() time.Duration {
		t0 := time.Now()
		for i := 0; i < b.N; i++ {
			if _, err := n.SearchAppend(bg, nil, f.queries[i%len(f.queries)], node.SearchParams{}); err != nil {
				b.Fatal(err)
			}
		}
		return time.Since(t0)
	}
	searchLoop() // warm up: the first queries on a node pay for its workspaces
	b.ResetTimer()
	idle := searchLoop()

	stop := make(chan struct{})
	churnDone := make(chan struct{})
	defer func() {
		close(stop)
		<-churnDone
	}()
	go func() {
		defer close(churnDone)
		chunk := docsSlice(f.col, benchN/10)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n.Len()+len(chunk) > cfg.Capacity {
				n.Retire(bg)
				if _, err := n.Insert(bg, base); err != nil {
					b.Error(err)
					return
				}
			}
			if _, err := n.Insert(bg, chunk); err != nil {
				b.Error(err)
				return
			}
			if err := n.MergeNow(bg); err != nil {
				b.Error(err)
				return
			}
		}
	}()
	during := searchLoop()
	b.StopTimer()
	b.ReportMetric(float64(idle.Nanoseconds())/float64(b.N), "ns/query-idle")
	b.ReportMetric(float64(during.Nanoseconds())/float64(b.N), "ns/query-during-merge")
}

// --- Kernels beyond the figures -------------------------------------------

// Sparse dot-product kernels (§5.2.3).
func BenchmarkSparseDotKernels(b *testing.B) {
	f := benchFixture(b)
	q := f.queries[0]
	mask := sparse.NewQueryMask(benchDim)
	mask.Scatter(q)
	docs := make([]sparse.Vector, 256)
	for i := range docs {
		docs[i] = f.col.Mat.Row(i)
	}
	b.Run("MergeIntersect", func(b *testing.B) {
		var sink float64
		for i := 0; i < b.N; i++ {
			for _, d := range docs {
				sink += sparse.Dot(q, d)
			}
		}
		_ = sink
	})
	b.Run("BinarySearch", func(b *testing.B) {
		var sink float64
		for i := 0; i < b.N; i++ {
			for _, d := range docs {
				sink += sparse.DotBinary(q, d)
			}
		}
		_ = sink
	})
	b.Run("QueryMask", func(b *testing.B) {
		var sink float64
		for i := 0; i < b.N; i++ {
			for _, d := range docs {
				sink += mask.Dot(d.Idx, d.Val)
			}
		}
		_ = sink
	})
}

// Parameter auto-tuning end to end (§7.3).
func BenchmarkTune(b *testing.B) {
	f := benchFixture(b)
	sample := docsSlice(f.col, 1000)
	for i := 0; i < b.N; i++ {
		if _, err := Tune(sample, TuneOptions{TargetN: benchN}); err != nil {
			b.Fatal(err)
		}
	}
}
