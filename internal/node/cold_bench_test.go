package node

import (
	"slices"
	"testing"

	"plsh/internal/core"
	"plsh/internal/corpus"
	"plsh/internal/delta"
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
	n, err := Open(bg, cfg)
	if err != nil {
		b.Fatal(err)
	}
	docs := coldDocs(cfg.Capacity, cfg.Params.Dim)
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
		t := delta.New(n.fam, n.cfg.Build.Workers)
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

// coldDocs returns n documents of the benchmark suite's corpus.
func coldDocs(n, dim int) []sparse.Vector {
	col := corpus.Generate(corpus.Twitter(n, dim, 1))
	docs := make([]sparse.Vector, col.Mat.Rows())
	for i := range docs {
		docs[i] = col.Mat.Row(i)
	}
	return docs
}

// BenchmarkMerge times one merge of a delta chain into the static index —
// node.mergeStatic, the merge that ships: core.BuildFromSketches over the
// delta rows from the sketches their segments kept, then core.Merge's copy
// of both table sets into one — at the benchmark suite's geometry. 32k+20k
// is the ladder's node.merge_ms rung — 200 batches of 100 over the 32 000-row
// base set — and 131k+13k a stream_ingest merge late in a run: one merge
// trigger's worth of rows into a static index that has absorbed seven. One
// row in a hundred is tombstoned on either side. The merge is not
// installed, so every iteration merges the same state. Its one arm keeps
// the name Copy, which DESIGN's tables cite. Run it with
//
//	go test -run '^$' -bench 'Merge/' -benchtime 5x ./internal/node
//
// merge-ms/op is what the node adds to Stats.TotalMergeNS per merge; B/op is
// what a merge allocates, the new index included.
func BenchmarkMerge(b *testing.B) {
	for _, size := range []struct {
		name          string
		nStatic, nAdd int
	}{
		{"32k+20k", 32000, 20000},
		{"131k+13k", 131000, 13100},
	} {
		b.Run(size.name, func(b *testing.B) {
			cfg := Config{
				Params:   lshhash.Params{Dim: 50000, K: 16, M: 16, Seed: 1},
				Capacity: size.nStatic + size.nAdd,
				Build:    core.Defaults(),
				Query:    core.QueryDefaults(),
			}
			n, err := Open(bg, cfg)
			if err != nil {
				b.Fatal(err)
			}
			docs := coldDocs(cfg.Capacity, cfg.Params.Dim)
			insert := func(docs []sparse.Vector, batch int) {
				for lo := 0; lo < len(docs); lo += batch {
					if _, err := n.Insert(bg, docs[lo:min(lo+batch, len(docs))]); err != nil {
						b.Fatal(err)
					}
				}
			}
			insert(docs[:size.nStatic], 1000)
			if err := n.MergeNow(bg); err != nil {
				b.Fatal(err)
			}
			insert(docs[size.nStatic:], 100)
			for id := 7; id < cfg.Capacity; id += 100 {
				if err := n.Delete(uint32(id)); err != nil {
					b.Fatal(err)
				}
			}
			n.mu.Lock()
			old, segs, upTo, del := n.static, slices.Clone(n.segs), n.store.Rows(), n.deleted
			prefix := n.store.Prefix(upTo)
			n.mu.Unlock()

			b.Run("Copy", func(b *testing.B) {
				b.ReportAllocs()
				var st *core.Static
				for i := 0; i < b.N; i++ {
					st, _ = n.mergeStatic(old, segs, prefix, del, upTo)
				}
				b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "merge-ms/op")
				if st.Len() != upTo {
					b.Fatalf("merged index covers %d rows, want %d", st.Len(), upTo)
				}
			})
		})
	}
}

// pairwiseFold is the coalescing loop as it ran before trailingRun: while the
// older of the newest two segments is within 2× of the newer, the two are
// rebuilt into one. It ends in the segments the one-pass fold ends in; it
// lives in this file only, as the other arm of BenchmarkCoalesceChain. Both
// return the rows they rebucketed.
func pairwiseFold(n *Node, segs []segment) ([]segment, int) {
	rows := 0
	for len(segs) >= 2 {
		a, b := segs[len(segs)-2], segs[len(segs)-1]
		if a.t.Len() > 2*b.t.Len() {
			break
		}
		merged := delta.Coalesce(n.fam, a.t, b.t, n.cfg.Build.Workers, nil)
		segs = append(segs[:len(segs)-2], segment{base: a.base, t: merged})
		rows += merged.Len()
	}
	return segs, rows
}

func onePassFold(n *Node, segs []segment) ([]segment, int) {
	start := trailingRun(segs, 0)
	if start == len(segs)-1 {
		return segs, 0
	}
	merged := delta.CoalesceRun(n.fam, tablesOf(segs[start:]), n.cfg.Build.Workers, nil)
	return append(segs[:start], segment{base: segs[start].base, t: merged}), merged.Len()
}

// BenchmarkCoalesceChain replays the segment chain of one merge cycle —
// 131 batches of 100 documents, stream_ingest's writer up to a merge trigger,
// and the 32 batches of 1 000 of a set-up — through the node's fold policy
// (Fold: trailingRun, then one delta.CoalesceRun over the run) and through
// the pairwise cascade it replaced (Pairwise). The batches' own tables are
// built outside the timer; what is timed, and counted, is the folding.
// rebuckets/row is how many times the chain re-bucketed a row after its
// insert, per row — 4.35 and 3.0 folded, 6.15 and 3.94 pairwise: a count,
// the same on every host.
func BenchmarkCoalesceChain(b *testing.B) {
	for _, size := range []struct {
		name           string
		batches, batch int
	}{
		{"131x100", 131, 100},
		{"32x1000", 32, 1000},
	} {
		b.Run(size.name, func(b *testing.B) {
			n, err := Open(bg, Config{
				Params:   lshhash.Params{Dim: 50000, K: 16, M: 16, Seed: 1},
				Capacity: size.batches * size.batch,
				Build:    core.Defaults(),
				Query:    core.QueryDefaults(),
			})
			if err != nil {
				b.Fatal(err)
			}
			docs := coldDocs(size.batches*size.batch, 50000)
			batches := make([]segment, size.batches)
			for i := range batches {
				t := delta.New(n.fam, n.cfg.Build.Workers)
				t.Insert(docs[i*size.batch : (i+1)*size.batch])
				t.Freeze()
				batches[i] = segment{base: i * size.batch, t: t}
			}
			for _, arm := range []struct {
				name string
				fold func(*Node, []segment) ([]segment, int)
			}{{"Fold", onePassFold}, {"Pairwise", pairwiseFold}} {
				b.Run(arm.name, func(b *testing.B) {
					var chain []segment
					rebucketed := 0
					for i := 0; i < b.N; i++ {
						chain, rebucketed = chain[:0], 0
						for _, sg := range batches {
							var rows int
							chain, rows = arm.fold(n, append(chain, sg))
							rebucketed += rows
						}
					}
					b.ReportMetric(float64(rebucketed)/float64(size.batches*size.batch), "rebuckets/row")
					b.ReportMetric(float64(len(chain)), "segments")
				})
			}
		})
	}
}
