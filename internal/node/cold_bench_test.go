package node

import (
	"testing"

	"plsh/internal/core"
	"plsh/internal/corpus"
	"plsh/internal/lshhash"
	"plsh/internal/sparse"
)

// BenchmarkSearchColdStream times searchOn over the benchmark suite's
// stream_ingest geometry with no fleet, writer or journal: the 32 000-row
// static index plus a chain of frozen segments of 100·2^i rows (100 … 12 800,
// every size a Bentley–Saxe chain of 100-document batches passes through),
// K=16/M=16 → 120 tables, and 4096 distinct queries so each finds the
// structures cold. Run it with
//
//	go test -run '^$' -bench SearchColdStream -benchtime 4096x ./internal/node
//
// map-lookups/op is how many of the segments×L bucket probes per query get
// past the occupancy bitmaps to a hash lookup (960 with no filter); a rise
// there, or in ns/op, is the delta probe getting slower.
func BenchmarkSearchColdStream(b *testing.B) {
	const nStatic, minSeg, maxSeg, nQueries = 32000, 100, 12800, 4096
	cfg := Config{
		Params:   lshhash.Params{Dim: 50000, K: 16, M: 16, Seed: 1},
		Capacity: nStatic + 2*maxSeg,
		Build:    core.Defaults(),
		Query:    core.QueryDefaults(),
	}
	n, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	col := corpus.Generate(corpus.Twitter(cfg.Capacity, cfg.Params.Dim, 1))
	docs := make([]sparse.Vector, col.Mat.Rows())
	for i := range docs {
		docs[i] = col.Mat.Row(i)
	}
	if _, err := n.Insert(bg, docs[:nStatic]); err != nil {
		b.Fatal(err)
	}
	if err := n.MergeNow(bg); err != nil {
		b.Fatal(err)
	}
	// The chain is spliced in by hand, oldest and largest first: Insert would
	// coalesce exact doublings into one segment.
	n.mu.Lock()
	for size := maxSeg; size >= minSeg; size /= 2 {
		base := n.store.Rows()
		t := n.newDelta()
		t.Insert(docs[base : base+size])
		t.Freeze()
		for _, v := range docs[base : base+size] {
			n.store.AppendRow(v)
		}
		n.segs = append(n.segs, segment{base: base, t: t})
	}
	n.publishLocked()
	n.mu.Unlock()
	s := n.snap.Load()

	qs := make([]sparse.Vector, nQueries)
	for i := range qs {
		qs[i] = docs[i*7919%nStatic] // 7919 is prime to 32000: distinct rows
	}
	lookups := 0
	half := uint(cfg.Params.K / 2)
	for _, q := range qs {
		sketch := n.fam.Sketch(q)
		for _, sg := range s.segs {
			for l, pair := range n.fam.Pairs() {
				if sg.t.Occupied(l, pair.Key(sketch, half)) {
					lookups++
				}
			}
		}
	}

	var dst []core.Neighbor
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = n.searchOn(dst[:0], s, qs[i%nQueries], SearchParams{})
	}
	b.ReportMetric(float64(lookups)/nQueries, "map-lookups/op")
}
