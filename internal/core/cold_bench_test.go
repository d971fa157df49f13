package core

import (
	"fmt"
	"sync"
	"testing"

	"plsh/internal/corpus"
	"plsh/internal/lshhash"
	"plsh/internal/sched"
	"plsh/internal/sparse"
)

// coldSet is the benchmark suite's geometry (benchmarks/suite/inputs.go) at
// n documents: the tweet-like base set over a 50 000-word vocabulary,
// K=16/M=16 → 120 tables, and 4096 distinct queries drawn from the base
// set — enough that a pass over them finds the tables' offsets and items
// (directories of 1.2 MB and items of 8.6 MB at 32 000 rows) cold, as a
// client's next query does.
type coldSet struct {
	st    *Static
	store *sparse.Matrix
	qs    []sparse.Vector
}

func newColdSet(n int) (f coldSet) {
	fam, err := lshhash.NewFamily(lshhash.Params{Dim: 50000, K: 16, M: 16, Seed: 1})
	if err != nil {
		panic(err)
	}
	col := corpus.Generate(corpus.Twitter(n, 50000, 1))
	f.store = col.Mat
	if f.st, err = Build(fam, col.Mat, Defaults()); err != nil {
		panic(err)
	}
	f.qs = make([]sparse.Vector, 4096)
	for i := range f.qs {
		f.qs[i] = col.Mat.Row(i * 7919 % col.Mat.Rows()) // 7919 is prime: distinct rows for any n above 4096
	}
	return f
}

// coldFixture is static_query's base set, 32 000 documents.
var coldFixture = sync.OnceValue(func() coldSet { return newColdSet(32000) })

// BenchmarkEngineSearchCold times one cold SearchAppend with the Q2/Q3
// split beside it, and the pre-kernel monolithic loop as the reference the
// kernels are measured against: run it with
//
//	go test -run '^$' -bench EngineSearchCold -benchtime 4096x ./internal/core
//
// and an edit that re-slows the Q2 loop shows as Extract approaching
// Monolithic. ns/op comes from an engine that does not collect phases, the
// q2/q3 metrics from a second one that does, as in the suite's ladder.
//
// The N=…/Compact, N=…/Items32 and N=…/Dense cases are the evidence for the
// table layout (DESIGN.md "Static tables"): the default arm over the
// engine's tables, over the same directories with the items unpacked to 32
// bits each (items32Of of items_test.go — what a table was before its items
// were packed) and over the dense 2^k+1-offsets reference of dense_test.go,
// with 32-bit items too, on a fleet node's share, on static_query's base set
// and at four items a bucket.
// q2-ns/op is Step Q2 for queries drawn from the index, every one of whose
// 120 buckets holds at least the query; q2-fresh-ns/op for documents the
// index has never seen, most of whose buckets are empty;
// directory-bytes/table is everything a table holds but its items.
func BenchmarkEngineSearchCold(b *testing.B) {
	f := coldFixture()
	for _, arm := range []struct {
		name   string
		engine searchArm
	}{
		{"Extract", kernels},
		{"Monolithic", monolithic},
	} {
		b.Run(arm.name, func(b *testing.B) { benchSearch(b, f, arm.engine) })
	}

	for _, n := range []int{8000, 32000, 262144} {
		var set coldSet // built by the first of the arms that runs
		load := func() {
			if set.st == nil {
				if set = f; n != f.st.Len() {
					set = newColdSet(n)
				}
			}
		}
		for _, layout := range []string{"Compact", "Items32", "Dense"} {
			b.Run(fmt.Sprintf("N=%d/%s", n, layout), func(b *testing.B) {
				load()
				benchLayout(b, set, layout)
			})
		}
		if n == 262144 {
			b.Run(fmt.Sprintf("N=%d/Extract", n), func(b *testing.B) {
				load()
				benchSearch(b, set, kernels)
			})
		}
	}
}

// searchArm makes one of the benchmark's query paths over set, with opts,
// and returns it with the engine whose phases it collects.
type searchArm func(set coldSet, opts QueryOptions) (func(dst []Neighbor, q sparse.Vector) ([]Neighbor, QueryStats), *Engine)

// kernels is the engine's own SearchAppend.
func kernels(set coldSet, opts QueryOptions) (func(dst []Neighbor, q sparse.Vector) ([]Neighbor, QueryStats), *Engine) {
	e := NewEngine(set.st, set.store, opts)
	return func(dst []Neighbor, q sparse.Vector) ([]Neighbor, QueryStats) {
		return e.SearchAppend(dst, q, SearchParams{})
	}, e
}

// monolithic is the pre-kernel loop (monolith).
func monolithic(set coldSet, opts QueryOptions) (func(dst []Neighbor, q sparse.Vector) ([]Neighbor, QueryStats), *Engine) {
	m := newMonolith(set.st, set.store, opts)
	return func(dst []Neighbor, q sparse.Vector) ([]Neighbor, QueryStats) {
		return m.search(dst, q, SearchParams{})
	}, m.Engine
}

// benchSearch times arm's cold search over set's queries: ns/op from an
// engine that does not collect phases, the q2/q3 metrics and the dot
// products a query (verified/op) from a second one that does.
func benchSearch(b *testing.B, set coldSet, arm searchArm) {
	opts := QueryDefaults()
	plain, _ := arm(set, opts)
	opts.CollectPhases = true
	phased, eng := arm(set, opts)
	var dst []Neighbor
	verified := 0
	for i := 0; i < b.N; i++ {
		var s QueryStats
		dst, s = phased(dst[:0], set.qs[i%len(set.qs)])
		verified += s.Verified
	}
	ph := eng.Phases()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, _ = plain(dst[:0], set.qs[i%len(set.qs)])
	}
	b.ReportMetric(float64(ph.Q2NS)/float64(b.N), "q2-ns/op")
	b.ReportMetric(float64(ph.Q3NS)/float64(b.N), "q3-ns/op")
	b.ReportMetric(float64(verified)/float64(b.N), "verified/op")
}

// benchLayout times the default search arm over set's tables, over them with
// 32-bit items or over their dense expansion, with Step Q2 clocked as
// SearchOn clocks it.
func benchLayout(b *testing.B, set coldSet, layout string) {
	st := set.st
	e := NewEngine(st, set.store, QueryDefaults())
	p := st.fam.Params()
	pairs, half := st.fam.Pairs(), uint(p.K/2)
	probe := func(ws *Workspace) int {
		return ProbeMark(st.tables, pairs, ws.sketch, half, ws.lo, ws.hi, ws.first, ws.seen.Words())
	}
	tableBytes := float64(st.MemoryBytes()-int64(cap(st.signs))*8) / float64(p.L())
	itemBytes := float64(cap(st.tables[0].items.buf))
	switch layout {
	case "Items32":
		items := items32Of(st)
		probe = func(ws *Workspace) int {
			return probeMarkItems32(st.tables, items, pairs, ws.sketch, half, ws.lo, ws.hi, ws.seen.Words())
		}
		tableBytes += float64(st.Len())*4 - itemBytes
		itemBytes = float64(st.Len()) * 4
	case "Dense":
		tables := make([]denseTable, p.L())
		for l := range tables {
			tables[l] = denseOf(&st.tables[l], p.Buckets())
		}
		probe = func(ws *Workspace) int {
			return probeMarkDense(tables, pairs, ws.sketch, half, ws.lo, ws.hi, ws.seen.Words())
		}
		tableBytes = float64(len(tables[0].Offsets)+len(tables[0].Items)) * 4
		itemBytes = float64(len(tables[0].Items)) * 4
	}
	var dst []Neighbor
	search := func(q sparse.Vector) (q2 int64) {
		ws := e.Begin(q)
		t0 := now()
		sink += probe(ws)
		ws.cand = ws.seen.AppendSet(ws.cand[:0])
		ws.seen.ResetList(ws.cand)
		q2 = now() - t0
		dst, _, _ = Verify(dst[:0], ws.cand, 0, st.signs, e.store, nil, e.Filter(ws, SearchParams{}))
		e.End(ws)
		return q2
	}
	// Documents of another corpus seed: not in the index.
	fresh := corpus.Generate(corpus.Twitter(len(set.qs), 50000, 2)).Mat
	var q2Fresh int64
	for i := 0; i < b.N; i++ {
		q2Fresh += search(fresh.Row(i % fresh.Rows()))
	}
	var q2 int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q2 += search(set.qs[i%len(set.qs)])
	}
	b.ReportMetric(float64(q2)/float64(b.N), "q2-ns/op")
	b.ReportMetric(float64(q2Fresh)/float64(b.N), "q2-fresh-ns/op")
	b.ReportMetric(tableBytes-itemBytes, "directory-bytes/table")
	b.ReportMetric(tableBytes*float64(p.L())/float64(st.Len()), "bytes/doc")
}

// monolith is the query path as it stood before the kernels of kernels.go:
// the probe, the phase timing and Step Q3 in one function body, options
// read through the engine inside the loops. It exists only as the
// benchmark's reference.
type monolith struct {
	*Engine
	pairs []lshhash.Pair
}

func newMonolith(st *Static, store sparse.Store, opts QueryOptions) *monolith {
	return &monolith{Engine: NewEngine(st, store, opts), pairs: st.fam.Pairs()}
}

func (e *monolith) search(dst []Neighbor, q sparse.Vector, p SearchParams) ([]Neighbor, QueryStats) {
	ws := e.wsPool.Get().(*Workspace)
	defer e.wsPool.Put(ws)
	var stats QueryStats
	if e.st.Len() == 0 || q.NNZ() == 0 {
		return dst, stats
	}
	hp := e.st.fam.Params()
	half := uint(hp.K / 2)

	e.st.fam.SketchInto(q, ws.scores, ws.sketch)

	var t0 int64
	if e.opts.CollectPhases {
		t0 = now()
	}

	seen := ws.seen
	for l := range e.st.tables {
		pr := e.pairs[l]
		key := ws.sketch[pr.A]<<half | ws.sketch[pr.B]
		t := &e.st.tables[l]
		lo, hi := t.bounds(key)
		mul, want := t.keyMatch(key)
		for i := lo; i < hi; i++ {
			if item := uint64(t.items.at(i)) * mul; uint32(item) == want {
				stats.Collisions++
				seen.Set(int(item >> 32))
			}
		}
	}
	ws.cand = seen.AppendSet(ws.cand[:0])
	seen.ResetList(ws.cand)
	if e.opts.CollectPhases {
		t1 := now()
		e.q2ns.Add(t1 - t0)
		t0 = t1
	}

	radius := e.opts.Radius
	if p.Radius > 0 {
		radius = p.Radius
	}
	thr := sparse.CosThreshold(radius)
	evaluated := 0
	base := len(dst)
	ws.mask.Scatter(q)
	for _, id := range ws.cand {
		if e.deleted != nil && e.deleted.TestAtomic(int(id)) {
			continue
		}
		evaluated++
		idx, val := e.store.Doc(int(id))
		if dot := ws.mask.Dot(idx, val); dot >= thr {
			dst = append(dst, Neighbor{ID: id, Dist: sparse.AngularDistance(dot)})
		}
	}
	stats.Unique = evaluated
	ws.mask.Unscatter()
	if e.opts.CollectPhases {
		e.q3ns.Add(now() - t0)
	}
	stats.Results = len(dst) - base
	return dst, stats
}

// BenchmarkProbeBisect is the evidence behind the rule that the probe is
// staged (DESIGN.md "Q2/Q3 leaf kernels"). All are leaf functions over
// the same tables and the same cold sketches; StagedItems32 is Staged over
// the items unpacked to 32 bits, the price of the packing with nothing else
// of a query around it. Unstaged walks each bucket as
// soon as its bounds load, as the monolithic loop did — and is 3–5× slower
// than Staged or level with it depending on code that is not in the loop
// (with or without the reslice on its first line, for one).
// UnstagedNoStores keeps that loop but only sums the IDs — no bitvector, no
// store of any kind — and is still slow, which rules out store-to-load
// aliasing; UnstagedNoLoop touches one item per table with no loop on the
// bucket length and is as fast as Staged, which rules the loop branch in:
// it waits on a load that misses, and how the predictor happens to guess it
// decides whether the next table's miss overlaps this one's.
func BenchmarkProbeBisect(b *testing.B) {
	f := coldFixture()
	tables, pairs := f.st.tables, f.st.fam.Pairs()
	items32 := items32Of(f.st)
	sketches := make([][]uint32, len(f.qs))
	for i, q := range f.qs {
		sketches[i] = f.st.fam.Sketch(q)
	}
	words := make([]uint64, (f.st.Len()+63)/64)
	lo, hi, first := make([]uint32, len(tables)), make([]uint32, len(tables)), make([]uint32, len(tables))
	for _, v := range []struct {
		name  string
		probe func(sketch []uint32) int
	}{
		{"Staged", func(s []uint32) int { return ProbeMark(tables, pairs, s, 8, lo, hi, first, words) }},
		{"StagedItems32", func(s []uint32) int { return probeMarkItems32(tables, items32, pairs, s, 8, lo, hi, words) }},
		{"Unstaged", func(s []uint32) int { return probeUnstaged(tables, pairs, s, 8, words) }},
		{"UnstagedNoStores", func(s []uint32) int { return probeUnstagedNoStores(tables, pairs, s, 8) }},
		{"UnstagedNoLoop", func(s []uint32) int { return probeUnstagedNoLoop(tables, pairs, s, 8) }},
	} {
		b.Run(v.name, func(b *testing.B) {
			n := 0
			for i := 0; i < b.N; i++ {
				n += v.probe(sketches[i%len(sketches)])
				clear(words)
			}
			sink += n
		})
	}
}

var sink int

//go:noinline
func probeUnstaged(tables []Table, pairs []lshhash.Pair, sketch []uint32, half uint, words []uint64) int {
	pairs = pairs[:len(tables)]
	collisions := 0
	for l := range tables {
		t := &tables[l]
		key := pairs[l].Key(sketch, half)
		mul, want := t.keyMatch(key)
		lo, hi := t.bounds(key)
		for i := lo; i < hi; i++ {
			item := uint64(t.items.at(i)) * mul
			id, hit := uint32(item>>32), matches(uint32(item), want)
			words[id>>6] |= hit << (id & 63)
			collisions += int(hit)
		}
	}
	return collisions
}

//go:noinline
func probeUnstagedNoStores(tables []Table, pairs []lshhash.Pair, sketch []uint32, half uint) int {
	sum := 0
	for l := range tables {
		t := &tables[l]
		lo, hi := t.bounds(pairs[l].Key(sketch, half))
		for i := lo; i < hi; i++ {
			sum += int(t.items.at(i))
		}
	}
	return sum
}

//go:noinline
func probeUnstagedNoLoop(tables []Table, pairs []lshhash.Pair, sketch []uint32, half uint) int {
	sum := 0
	for l := range tables {
		t := &tables[l]
		lo, _ := t.bounds(pairs[l].Key(sketch, half))
		sum += int(t.items.at(min(lo, max(t.n, 1)-1)))
	}
	return sum
}

// BenchmarkBuild times the serving build, BuildTimed, over the suite's
// geometry (coldSet's: tweet-like rows over a 50 000-word vocabulary, K = M
// = 16) at static_query's 32 000 rows and at 222 000, and reports its
// phases per build: hash-ns/op (sketching, §5.1.1) and i1-, i2- and
// i3-ns/op (Steps I1–I3 of §5.1.2). The family has hashed every row once
// before the timed loop, so no build pays for drawing hyperplane rows.
//
//	go test -run '^$' -bench 'Build$' -benchtime 5x ./internal/core
func BenchmarkBuild(b *testing.B) {
	for _, n := range []int{32000, 222000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			fam, err := lshhash.NewFamily(lshhash.Params{Dim: 50000, K: 16, M: 16, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			mat := corpus.Generate(corpus.Twitter(n, 50000, 1)).Mat
			fam.SketchAll(mat, sched.NewPool(0))
			var sum BuildTimings
			for b.Loop() {
				_, tm, err := BuildTimed(fam, mat, Defaults())
				if err != nil {
					b.Fatal(err)
				}
				sum.HashNS += tm.HashNS
				sum.I1NS += tm.I1NS
				sum.I2NS += tm.I2NS
				sum.I3NS += tm.I3NS
			}
			per := func(ns int64) float64 { return float64(ns) / float64(b.N) }
			b.ReportMetric(per(sum.HashNS), "hash-ns/op")
			b.ReportMetric(per(sum.I1NS), "i1-ns/op")
			b.ReportMetric(per(sum.I2NS), "i2-ns/op")
			b.ReportMetric(per(sum.I3NS), "i3-ns/op")
		})
	}
}

// TestStaticBytesPerDocCeiling pins what a static index over the benchmark
// suite's geometry (coldSet) holds a document — the tables and the sign-bit
// column, Static.MemoryBytes — at a fleet node's share and at
// static_query's base set, to the byte and under a ceiling. The directory
// indexes ⌈log2 n⌉ − 2 key bits (DirectoryBits), so a bucket holds two to
// four items; at ⌈log2 n⌉ bits, one item a bucket, they read 397.0 and
// 414.8; with a bitmap, rank words and an entry an occupied bucket, 339.8
// and 347.0; in 64-bucket blocks of 9-bit offsets, 323.3 and 323.5.
func TestStaticBytesPerDocCeiling(t *testing.T) {
	for _, c := range []struct {
		n       int
		bytes   int64
		ceiling float64
	}{{8000, 2586080, 324}, {32000, 10353120, 324}} {
		st := newColdSet(c.n).st
		if got := st.MemoryBytes(); got != c.bytes {
			t.Errorf("%d rows: MemoryBytes = %d, pinned at %d", c.n, got, c.bytes)
		}
		if got := float64(st.MemoryBytes()) / float64(c.n); got > c.ceiling {
			t.Errorf("%d rows: %.1f B/doc, ceiling %.0f", c.n, got, c.ceiling)
		}
	}
}
