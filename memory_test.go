package plsh

import (
	"math/bits"
	"testing"

	"plsh/internal/core"
	"plsh/internal/corpus"
	"plsh/internal/israce"
)

// The tests in this file pin the memory behavior of the search hot path:
// the opt-in-only trace, the allocation ceilings the query path must stay
// under, and what Stats counts as memory.

// TestTraceOptInOnly pins the default: a Search/SearchBatch without
// WithTrace records no per-replica attempts — the trace costs nothing
// unless asked for — while WithTrace materializes it on the same call
// shape, on both implementations of Index.
func TestTraceOptInOnly(t *testing.T) {
	docs := SyntheticTweets(200, 2000, 31)
	queries := docs[:8]

	s, err := NewStore(Config{Dim: 2000, K: 4, M: 16, Radius: 0.9, Capacity: len(docs) + 1, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cl, err := NewCluster(4, 0, Config{Dim: 2000, K: 4, M: 16, Radius: 0.9, Capacity: 100, Replicas: 2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for _, idx := range []Index{s, cl} {
		if _, err := idx.Insert(bg, docs); err != nil {
			t.Fatal(err)
		}
	}

	for name, idx := range map[string]Index{"store": s, "cluster": cl} {
		_, plain, err := idx.SearchBatch(bg, queries)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if plain.Attempts != nil {
			t.Errorf("%s: untraced search recorded %d attempts; the trace must be opt-in",
				name, len(plain.Attempts))
		}
		_, traced, err := idx.SearchBatch(bg, queries, WithTrace())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(traced.Attempts) == 0 {
			t.Errorf("%s: WithTrace recorded no attempts", name)
		}
	}
}

// allocStore builds a merged store over n synthetic tweets for the
// allocation-ceiling guards. Its two workers make a batch's count the same
// on any host: each pool worker of a batch is a goroutine.
func allocStore(t *testing.T, n int) (*Store, []Vector) {
	t.Helper()
	docs := SyntheticTweets(n, 2000, 11)
	s, err := NewStore(Config{
		Dim: 2000, K: 4, M: 16, Radius: 0.9,
		Capacity: n + 1, Seed: 42, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert(bg, docs); err != nil {
		t.Fatal(err)
	}
	if err := s.Merge(bg); err != nil {
		t.Fatal(err)
	}
	return s, docs
}

// TestStoreSearchAllocationCeiling is the regression guard for the
// single-query hot path: once the engine's workspace pool is warm,
// Store.Search must stay within a small fixed allocation budget (the
// Result conversion — not per-call workspaces, merge buffers, or traces).
func TestStoreSearchAllocationCeiling(t *testing.T) {
	if israce.Enabled {
		t.Skip("sync.Pool drops workspaces at random under -race")
	}
	s, docs := allocStore(t, 1000)
	defer s.Close()
	opts := []SearchOption{WithK(10)}
	q := docs[17]
	for i := 0; i < 32; i++ { // warm the workspace pool to steady state
		if _, err := s.Search(bg, q, opts...); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := s.Search(bg, q, opts...); err != nil {
			t.Fatal(err)
		}
	})
	// Ceiling with headroom over the measured steady state of 2: the
	// []Match handed to the caller and the searchSpec the options write
	// through. The node appends into a stack buffer. A jump past it means
	// per-call allocation crept back into the hot path.
	const ceiling = 4
	if allocs > ceiling {
		t.Errorf("Store.Search allocates %.1f/op warm; ceiling %d", allocs, ceiling)
	}
}

// TestStoreSearchBatchIsTheOneGroupPath pins that a Store's SearchBatch
// is the coordinator's one-group search: a batch of 16 through the Store
// and through NewCluster(1, 1, cfg) over the same rows allocates the same
// count, under a ceiling that keeps the one-group, one-replica search
// from growing back a goroutine, a channel or a context: its one attempt
// runs in the caller's goroutine.
func TestStoreSearchBatchIsTheOneGroupPath(t *testing.T) {
	if israce.Enabled {
		t.Skip("sync.Pool drops workspaces at random under -race")
	}
	s, docs := allocStore(t, 1000)
	defer s.Close()
	cl, err := NewCluster(1, 1, s.Config())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Insert(bg, docs); err != nil {
		t.Fatal(err)
	}
	if err := cl.Merge(bg); err != nil {
		t.Fatal(err)
	}
	opts := []SearchOption{WithK(10)}
	qs := docs[17:33]
	allocs := map[string]float64{}
	for name, idx := range map[string]Index{"Store": s, "one-group Cluster": cl} {
		for i := 0; i < 32; i++ { // warm the workspace pool to steady state
			if _, _, err := idx.SearchBatch(bg, qs, opts...); err != nil {
				t.Fatal(err)
			}
		}
		allocs[name] = testing.AllocsPerRun(200, func() {
			if _, _, err := idx.SearchBatch(bg, qs, opts...); err != nil {
				t.Fatal(err)
			}
		})
	}
	t.Logf("a batch of %d allocates %.1f/op warm through the Store", len(qs), allocs["Store"])
	if allocs["Store"] != allocs["one-group Cluster"] {
		t.Errorf("a batch of %d allocates %.1f through the Store and %.1f through a one-group Cluster; the Store's batch is that path",
			len(qs), allocs["Store"], allocs["one-group Cluster"])
	}
	// Ceiling with headroom over the measured steady state of 13: the
	// node's batch (its pool's run state, spans and the one closure its
	// workers share, one answer array, the carved lists), the plan, the
	// report, the answer arena and the Results. It read 20 when the group's
	// one attempt ran in a goroutine of its own behind a cancel context and
	// a results channel, 23 when the pool allocated a closure a worker, and
	// 49 when the node grew one answer slice a query and the coordinator
	// planned refs for a scatter batch.
	const ceiling = 15
	if allocs["Store"] > ceiling {
		t.Errorf("Store.SearchBatch of %d allocates %.1f/op warm; ceiling %d", len(qs), allocs["Store"], ceiling)
	}
}

// TestClusterSearchAllocationCeiling guards the broadcast path end to
// end on an in-process replicated cluster of two groups: the search loop
// and its attempts, the coordinator's sort and cut, and Result conversion
// together must hold a fixed budget once warm.
func TestClusterSearchAllocationCeiling(t *testing.T) {
	if israce.Enabled {
		t.Skip("sync.Pool drops workspaces at random under -race")
	}
	docs := SyntheticTweets(1000, 2000, 11)
	cl, err := NewCluster(4, 0, Config{
		Dim: 2000, K: 4, M: 16, Radius: 0.9,
		Capacity: 600, Replicas: 2, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Insert(bg, docs); err != nil {
		t.Fatal(err)
	}
	if err := cl.Merge(bg); err != nil {
		t.Fatal(err)
	}
	opts := []SearchOption{WithK(10)}
	q := docs[17]
	for i := 0; i < 32; i++ {
		if _, err := cl.Search(bg, q, opts...); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := cl.Search(bg, q, opts...); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("a query allocates %.1f/op warm through a 2-group, 2-replica Cluster", allocs)
	// Ceiling with headroom over the measured steady state of 20: each of
	// the two groups' attempts is a goroutine reporting to the search
	// loop's one channel, under the search-wide cancel context, so its
	// floor is higher than the Store's; the ceiling still excludes any
	// per-call result materialization beyond the flat arena. It read 32
	// when each group ran its own failover machinery behind a context,
	// a channel and a goroutine per attempt.
	const ceiling = 23
	if allocs > ceiling {
		t.Errorf("Cluster.Search allocates %.1f/op warm; ceiling %d", allocs, ceiling)
	}
}

// TestFourGroupSearchBatchAllocationCeiling pins a fleet batch's
// allocations in process: bench_test.go's corpus (K 12, M 10, Dim 20 000),
// 16 000 rows over NewCluster(4, 4, cfg), a top-10 SearchBatch of 16. Each
// group's node appends its answers into one array per pool worker and
// carves the batch's lists from them, and the scatter coordinator reads
// group g's i-th list as query i's, with no plan.
func TestFourGroupSearchBatchAllocationCeiling(t *testing.T) {
	if israce.Enabled {
		t.Skip("sync.Pool drops workspaces at random under -race")
	}
	const groups, perGroup = 4, 4000
	col := corpus.Generate(corpus.Twitter(benchN, benchDim, benchSeed))
	cl, err := NewCluster(groups, groups, Config{
		Dim: benchDim, K: 12, M: 10, Capacity: perGroup + 1, Seed: benchSeed,
		Workers: 2, // each pool worker of a batch is a goroutine: fix the count on any host
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Insert(bg, docsSlice(col, groups*perGroup)); err != nil {
		t.Fatal(err)
	}
	if err := cl.Merge(bg); err != nil {
		t.Fatal(err)
	}
	qs := col.SampleQueries(benchQ, benchSeed+1)[:16]
	opts := []SearchOption{WithK(10)}
	search := func() {
		if _, _, err := cl.SearchBatch(bg, qs, opts...); err != nil {
			t.Fatal(err)
		}
	}
	for range 32 { // warm the workspace pools to steady state
		search()
	}
	allocs := testing.AllocsPerRun(200, search)
	t.Logf("a 4-group SearchBatch of %d allocates %.1f/op warm", len(qs), allocs)
	// Ceiling with headroom over the measured steady state of 39: per group
	// the node's batch (its pool's run state, spans and the one closure its
	// workers share, one answer array, the carved lists) and its attempt's
	// goroutine, then the search-wide cancel context and the loop's one
	// channel, the plan, the report, the answer arena and the Results. It
	// read 61 when each group ran its own failover machinery (a cancel
	// context, a channel and a goroutine per attempt) in a goroutine of its
	// own, 73 when the pool allocated a closure a worker, and a coordinator
	// that planned refs for every (query, group) over nodes that grew one
	// answer slice a query 94.5–99.
	const ceiling = 41
	if allocs > ceiling {
		t.Errorf("a 4-group SearchBatch of %d allocates %.1f/op warm; ceiling %d", len(qs), allocs, ceiling)
	}
}

// TestStatsMemoryCountsDeltaBitmaps pins that Stats.MemoryBytes includes the
// delta segments' occupancy bitmaps. One batch of 1025 copies of one
// document makes a segment whose every other byte is known from outside: one
// bucket per table holding 1025 IDs (4 bytes each, at most doubled by slice
// growth, plus the 48-byte entry), 1025 packed sketches of 128 sign bits
// (two words: SketchWords at K = M = 16), and — 16 bits per row
// rounded up to a power of two — 32768-bit bitmaps, 4096 bytes per table,
// which is more than the ID slices' slack can hide.
func TestStatsMemoryCountsDeltaBitmaps(t *testing.T) {
	const n, k, m = 1025, 16, 16
	const tables = m * (m - 1) / 2
	s, err := NewStore(Config{Dim: 2000, K: k, M: m, Capacity: 20000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	before, err := s.Stats(bg)
	if err != nil {
		t.Fatal(err)
	}
	doc := SyntheticTweets(1, 2000, 5)[0]
	batch := make([]Vector, n)
	for i := range batch {
		batch[i] = doc
	}
	if _, err := s.Insert(bg, batch); err != nil {
		t.Fatal(err)
	}
	after, err := s.Stats(bg)
	if err != nil {
		t.Fatal(err)
	}
	if after[0].DeltaLen != n {
		t.Fatalf("%d delta rows, want the whole batch unmerged", after[0].DeltaLen)
	}
	arena := int64(n * (4 + 8*doc.NNZ()))
	buckets := int64(tables * (4*n + 48))
	sketches := int64(n * 2 * 8)
	bitmaps := int64(tables * 32768 / 8)
	got := after[0].MemoryBytes - before[0].MemoryBytes
	if want := arena + buckets + sketches + bitmaps; got < want {
		t.Errorf("a %d-row segment adds %d bytes to Stats.MemoryBytes; arena %d + buckets %d + sketches %d + bitmaps %d = %d",
			n, got, arena, buckets, sketches, bitmaps, want)
	}
}

// TestStatsMemoryCountsStaticDirectory pins both sides of what the static
// tables add to Stats.MemoryBytes. An empty index is all directory — per
// table the four 64-bucket blocks over the k/2 key bits the smallest
// directory indexes, each a 32-bit base and offsets of no bits — and
// reports it. Merging 4097 copies of one document then fills one bucket a
// table: the directory now indexes ⌈log2 4097⌉ − 2 = 11 key bits
// (core.DirectoryBits), so it grows to 32 blocks whose offsets take the 13
// bits of the one block's 4097-item span; the items take the 13 bits an id
// needs and the 5 key bits the directory does not index (the 8 bytes of
// padding after each array the empty table had already); the sign-bit
// column gains the rows' 16 bytes each; and nothing else the size of the
// buckets (a dense 2^k+1 offsets array per table would be 31 MB here).
func TestStatsMemoryCountsStaticDirectory(t *testing.T) {
	const n, k, m = 4097, 16, 16
	const tables = m * (m - 1) / 2
	s, err := NewStore(Config{Dim: 2000, K: k, M: m, Capacity: 20000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	empty, err := s.Stats(bg)
	if err != nil {
		t.Fatal(err)
	}
	// The blocks of a directory over b key bits whose widest block spans
	// span items, padding included.
	directory := func(b, span int) int64 {
		return int64(tables * (((1<<b+63)/64*(32+65*bits.Len(uint(span)))+7)/8 + 8))
	}
	if empty[0].MemoryBytes < directory(k/2, 0) {
		t.Errorf("an empty index reports %d bytes, under the %d of its directory blocks", empty[0].MemoryBytes, directory(k/2, 0))
	}
	doc := SyntheticTweets(1, 2000, 5)[0]
	batch := make([]Vector, n)
	for i := range batch {
		batch[i] = doc
	}
	if _, err := s.Insert(bg, batch); err != nil {
		t.Fatal(err)
	}
	if err := s.Merge(bg); err != nil {
		t.Fatal(err)
	}
	merged, err := s.Stats(bg)
	if err != nil {
		t.Fatal(err)
	}
	if merged[0].StaticLen != n || merged[0].DeltaLen != 0 {
		t.Fatalf("%d static + %d delta rows, want the whole batch merged", merged[0].StaticLen, merged[0].DeltaLen)
	}
	arena := int64(n * (4 + 8*doc.NNZ()))
	b := core.DirectoryBits(n, k)
	if b != 11 {
		t.Fatalf("fixture: %d rows index %d key bits, want 11", n, b)
	}
	items := int64(tables * ((n*(bits.Len(n-1)+k-b) + 7) / 8))
	grown := directory(b, n) - directory(k/2, 0)
	column := int64(n * 16) // each row's 128 sign bits, beside the tables
	got := merged[0].MemoryBytes - empty[0].MemoryBytes - column
	if got < arena+items+grown {
		t.Errorf("merging %d rows adds %d bytes to Stats.MemoryBytes beside the %d of the sign-bit column; arena %d + items %d + directory growth %d = %d", n, got, column, arena, items, grown, arena+items+grown)
	}
	if over := got - arena - items - grown; over > tables*64 {
		t.Errorf("merging %d rows into one bucket a table adds %d bytes beyond arena, items and directory: the directory grew with something other than its blocks", n, over)
	}
}

// TestStatsFamilyBytes pins the hash family's rung of the footprint: a pointer
// per vocabulary word before anything is hashed, then one hyperplane row per
// distinct word seen — a query's words as well as a document's — reported in
// Stats.FamilyBytes and never in Stats.MemoryBytes, which stays per-document
// state.
func TestStatsFamilyBytes(t *testing.T) {
	const dim, k, m = 2000, 16, 16
	const rowBytes = m * k / 2 // one byte a coefficient
	s, err := NewStore(Config{Dim: dim, K: k, M: m, Capacity: 2000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	stats := func() Stats {
		t.Helper()
		st, err := s.Stats(bg)
		if err != nil {
			t.Fatal(err)
		}
		return st[0]
	}
	if got := stats().FamilyBytes; got != dim*8 {
		t.Fatalf("a store that has hashed nothing reports a family of %d bytes, want the %d of its pointer table", got, dim*8)
	}
	docs := SyntheticTweets(300, dim, 5)
	words := map[uint32]bool{}
	for _, d := range docs {
		for _, c := range d.Idx {
			words[c] = true
		}
	}
	if _, err := s.Insert(bg, docs); err != nil {
		t.Fatal(err)
	}
	inserted := stats()
	if want := int64(dim*8 + len(words)*rowBytes); inserted.FamilyBytes != want {
		t.Fatalf("FamilyBytes = %d after %d distinct words, want %d", inserted.FamilyBytes, len(words), want)
	}
	var unseen uint32
	for words[unseen] {
		unseen++
	}
	q, err := NewVector([]uint32{unseen}, []float32{1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Search(bg, q); err != nil {
		t.Fatal(err)
	}
	queried := stats()
	if got := queried.FamilyBytes - inserted.FamilyBytes; got != rowBytes {
		t.Errorf("a query with one unseen word grew the family by %d bytes, want one row (%d)", got, rowBytes)
	}
	if queried.MemoryBytes != inserted.MemoryBytes {
		t.Errorf("MemoryBytes moved %d → %d on a query: the family is counted in it", inserted.MemoryBytes, queried.MemoryBytes)
	}
}
