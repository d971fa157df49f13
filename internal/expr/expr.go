// Package expr is the experiment harness: one runner per table/figure of
// the paper's evaluation (§8), each printing the same rows/series the paper
// reports, plus the streaming and recall measurements of §8.6 and §8.1.
//
// Experiments run at a configurable scale (cmd/plsh-bench's defaults target
// a laptop; the paper's single-node point is N=10.5M, D=500K, k=16, m=40).
// Absolute times differ from the paper's Xeon cluster; the comparisons
// preserved are the *shapes*: who wins, by what rough factor, and where
// curves cross.
// Each runner prints the paper's reported values on a "paper:" line under
// its measured table, so one run of cmd/plsh-bench is the side-by-side.
package expr

import (
	"context"
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
	"time"

	"plsh/internal/core"
	"plsh/internal/corpus"
	"plsh/internal/lshhash"
	"plsh/internal/node"
	"plsh/internal/sparse"
)

// Options scales and seeds the experiments.
type Options struct {
	// N is the dataset size (per node, for multi-node experiments).
	N int
	// Dim is the vocabulary size.
	Dim int
	// K and M are the LSH parameters (L = M(M−1)/2).
	K, M int
	// Queries is the query-set size (paper: 1000).
	Queries int
	// Radius is R (paper: 0.9).
	Radius float64
	// Workers bounds parallelism; 0 = GOMAXPROCS.
	Workers int
	// Seed drives corpus generation and hashing.
	Seed uint64
}

func (o Options) params() lshhash.Params {
	return lshhash.Params{Dim: o.Dim, K: o.K, M: o.M, Seed: o.Seed}
}

// twitterCorpus generates the tweet-like dataset for o.
func (o Options) twitterCorpus() *corpus.Collection {
	cfg := corpus.Twitter(o.N, o.Dim, o.Seed)
	return corpus.Generate(cfg)
}

// wikipediaCorpus generates the abstract-like dataset for o.
func (o Options) wikipediaCorpus() *corpus.Collection {
	cfg := corpus.Wikipedia(o.N, o.Dim, o.Seed)
	return corpus.Generate(cfg)
}

// queries samples the query workload ("a random subset of 1000 tweets from
// the database", §8).
func (o Options) queries(c *corpus.Collection) []sparse.Vector {
	return c.SampleQueries(o.Queries, o.Seed+1)
}

// engine builds the default index of mat under fam and opens a query
// engine on it at o's radius, both on workers workers.
func (o Options) engine(fam *lshhash.Family, mat *sparse.Matrix, workers int) (*core.Engine, error) {
	buildOpts := core.Defaults()
	buildOpts.Workers = workers
	st, err := core.Build(fam, mat, buildOpts)
	if err != nil {
		return nil, err
	}
	qOpts := core.QueryDefaults()
	qOpts.Radius = o.Radius
	qOpts.Workers = workers
	return core.NewEngine(st, mat, qOpts), nil
}

// node opens an in-memory node at o's parameters, radius and workers that
// holds up to capacity documents.
func (o Options) node(capacity int, autoMerge bool) (*node.Node, error) {
	cfg := node.Config{
		Params:    o.params(),
		Capacity:  capacity,
		AutoMerge: autoMerge,
		Build:     core.Defaults(),
		Query:     core.QueryDefaults(),
	}
	cfg.Build.Workers = o.Workers
	cfg.Query.Workers = o.Workers
	cfg.Query.Radius = o.Radius
	return node.Open(context.Background(), cfg)
}

// Runner is one experiment.
type Runner struct {
	// Name is the CLI identifier (e.g. "table2", "fig9").
	Name string
	// Desc is a one-line description.
	Desc string
	// Run executes the experiment at the given scale, writing a formatted
	// report to w.
	Run func(o Options, w io.Writer) error
}

// All returns every experiment in presentation order.
func All() []Runner {
	return []Runner{
		{"table2", "PLSH vs inverted index vs exhaustive search", Table2},
		{"fig4", "construction-time optimization breakdown", Fig4},
		{"fig5", "query-time optimization breakdown", Fig5},
		{"fig6", "performance model vs actual, per phase", Fig6},
		{"fig7", "model accuracy across (k,m), Twitter + Wikipedia", Fig7},
		{"fig8", "thread scaling on one node", Fig8},
		{"fig9", "node scaling with fixed data per node", Fig9},
		{"fig10", "latency vs throughput across batch sizes", Fig10},
		{"fig11", "streaming query overhead vs delta fill", Fig11},
		{"streaming", "insert/merge overheads at Twitter rates (§8.6)", Streaming},
		{"recall", "measured recall vs the 1−δ guarantee (§8.1)", Recall},
	}
}

// Lookup finds a runner by name.
func Lookup(name string) (Runner, bool) {
	for _, r := range All() {
		if r.Name == name {
			return r, true
		}
	}
	return Runner{}, false
}

// table is a small formatting helper around tabwriter.
type table struct {
	tw *tabwriter.Writer
}

func newTable(w io.Writer) *table {
	return &table{tw: tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)}
}

func (t *table) row(cells ...any) {
	for i, c := range cells {
		if i > 0 {
			fmt.Fprint(t.tw, "\t")
		}
		fmt.Fprint(t.tw, c)
	}
	fmt.Fprintln(t.tw)
}

// flush renders the table; a stdout write failure is ignored — the
// experiment's numbers are already lost if stdout is gone.
func (t *table) flush() { _ = t.tw.Flush() }

// ms renders a duration in milliseconds with sensible precision.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d.Nanoseconds())/1e6)
}

// msf renders nanoseconds (float) as milliseconds.
func msf(ns float64) string { return fmt.Sprintf("%.2f", ns/1e6) }

// minMaxAvg summarizes a slice of durations.
func minMaxAvg(ds []time.Duration) (mn, mx, avg time.Duration) {
	if len(ds) == 0 {
		return
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	mn, mx = sorted[0], sorted[len(sorted)-1]
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return mn, mx, sum / time.Duration(len(ds))
}

// header prints a section title.
func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n== %s ==\n", title)
}

// lshFamily draws the hash family for o.
func lshFamily(o Options) (*lshhash.Family, error) {
	return lshhash.NewFamily(o.params())
}

// docsOf flattens a collection into a vector slice.
func docsOf(c *corpus.Collection) []sparse.Vector {
	out := make([]sparse.Vector, c.Mat.Rows())
	for i := range out {
		out[i] = c.Mat.Row(i)
	}
	return out
}
