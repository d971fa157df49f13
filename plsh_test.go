package plsh

import (
	"context"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

var bg = context.Background()

func smallConfig() Config {
	return Config{Dim: 2000, K: 8, M: 6, Capacity: 2000}
}

// hasMatch reports whether ms contains the document with global ID id.
func hasMatch(ms []Match, id uint64) bool {
	return slices.ContainsFunc(ms, func(m Match) bool { return m.ID == id })
}

func TestStoreRoundTrip(t *testing.T) {
	s, err := NewStore(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	docs := SyntheticTweets(300, 2000, 7)
	ids, err := s.Insert(bg, docs)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 300 || s.Len() != 300 {
		t.Fatalf("ids=%d Len=%d", len(ids), s.Len())
	}
	for i := 0; i < 300; i += 29 {
		res, err := s.Search(bg, docs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !hasMatch(res.Matches, ids[i]) {
			t.Fatalf("doc %d not found", i)
		}
	}
}

func TestStoreDefaults(t *testing.T) {
	s, err := NewStore(Config{Dim: 5000})
	if err != nil {
		t.Fatal(err)
	}
	cfg := s.Config()
	if cfg.K != 16 || cfg.M != 16 || cfg.Radius != 0.9 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
}

func TestStoreConfigValidation(t *testing.T) {
	if _, err := NewStore(Config{}); err == nil {
		t.Fatal("missing Dim accepted")
	}
	if _, err := NewStore(Config{Dim: 100, K: 7}); err == nil {
		t.Fatal("odd K accepted")
	}
	// A table key is 32 bits: K = 34 would collide keys, and before that
	// allocate a 2^34-bit bitmap a table.
	if _, err := NewStore(Config{Dim: 100, K: 34}); err == nil {
		t.Fatal("K = 34 accepted")
	}
}

func TestStoreRejectsEmptyDoc(t *testing.T) {
	s, _ := NewStore(smallConfig())
	if _, err := s.Insert(bg, []Vector{{}}); err == nil {
		t.Fatal("empty doc accepted")
	}
}

// TestRejectsVectorsOutsideDim: a vector naming a column at or past Dim, or
// carrying more indexes than values, is refused with ErrInvalidVector on
// every path — Store, a scatter Cluster (the nodes refuse it) and a
// partitioned one (the router would hash it first) — instead of indexing
// out of range in the hash family; the index then keeps serving.
func TestRejectsVectorsOutsideDim(t *testing.T) {
	cfg := smallConfig()
	docs := SyntheticTweets(40, cfg.Dim, 3)
	outside := Vector{Idx: []uint32{1, uint32(cfg.Dim) + 150}, Val: []float32{0.6, 0.8}}
	ragged := Vector{Idx: []uint32{1, 2, 3}, Val: []float32{1}}

	indexes := map[string]Index{}
	s, err := NewStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	indexes["store"] = s
	for name, placement := range map[string]Placement{"scatter": PlacementScatter, "partitioned": PlacementPartitioned} {
		ccfg := cfg
		ccfg.Placement = placement
		c, err := NewCluster(2, 0, ccfg)
		if err != nil {
			t.Fatal(err)
		}
		indexes[name] = c
	}
	for name, ix := range indexes {
		t.Cleanup(func() { ix.Close() })
		if _, err := ix.Insert(bg, docs); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, bad := range []Vector{outside, ragged} {
			if _, err := ix.Search(bg, bad); !errors.Is(err, ErrInvalidVector) {
				t.Errorf("%s: Search(%v) = %v, want ErrInvalidVector", name, bad, err)
			}
			if _, _, err := ix.SearchBatch(bg, []Vector{docs[0], bad}); !errors.Is(err, ErrInvalidVector) {
				t.Errorf("%s: SearchBatch with %v = %v, want ErrInvalidVector", name, bad, err)
			}
			if _, err := ix.Insert(bg, []Vector{docs[1], bad}); !errors.Is(err, ErrInvalidVector) {
				t.Errorf("%s: Insert with %v = %v, want ErrInvalidVector", name, bad, err)
			}
		}
		res, err := ix.Search(bg, docs[0])
		if err != nil || len(res.Matches) == 0 {
			t.Errorf("%s: search after refused vectors: %v, %d matches", name, err, len(res.Matches))
		}
	}
}

// Partitioned placement routes over at most 256 groups (an 8-bit
// signature): an in-process cluster of 256 builds and one of 257 is refused
// before any node is opened — a durable one leaves no node directory.
func TestPartitionedClusterGroupBound(t *testing.T) {
	cfg := Config{Dim: 200, K: 4, M: 2, Capacity: 4, Placement: PlacementPartitioned}
	c, err := OpenCluster(bg, 256, 0, cfg)
	if err != nil {
		t.Fatalf("256 groups: %v", err)
	}
	if c.NumGroups() != 256 {
		t.Errorf("256 groups: cluster has %d", c.NumGroups())
	}
	c.Close()
	cfg.Dir = t.TempDir()
	if c, err := OpenCluster(bg, 257, 0, cfg); err == nil {
		c.Close()
		t.Fatal("257 groups accepted under partitioned placement")
	}
	if _, err := os.Stat(filepath.Join(cfg.Dir, "node-000")); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("257 groups: node-000 was opened before the refusal (stat: %v)", err)
	}
}

func TestStoreCapacity(t *testing.T) {
	cfg := smallConfig()
	cfg.Capacity = 100
	s, _ := NewStore(cfg)
	docs := SyntheticTweets(150, 2000, 9)
	if _, err := s.Insert(bg, docs[:100]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert(bg, docs[100:]); !errors.Is(err, ErrFull) {
		t.Fatalf("want ErrFull, got %v", err)
	}
}

func TestStoreHonorsContext(t *testing.T) {
	s, _ := NewStore(smallConfig())
	docs := SyntheticTweets(50, 2000, 9)
	if _, err := s.Insert(bg, docs[:25]); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(bg)
	cancel()
	if _, err := s.Insert(ctx, docs[25:]); !errors.Is(err, context.Canceled) {
		t.Fatalf("Insert: %v", err)
	}
	if _, err := s.Search(ctx, docs[0]); !errors.Is(err, context.Canceled) {
		t.Fatalf("Search: %v", err)
	}
	if _, _, err := s.SearchBatch(ctx, docs[:5]); !errors.Is(err, context.Canceled) {
		t.Fatalf("SearchBatch: %v", err)
	}
	if _, err := s.Search(ctx, docs[0], WithK(3)); !errors.Is(err, context.Canceled) {
		t.Fatalf("Search WithK: %v", err)
	}
	if err := s.Delete(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("Delete: %v", err)
	}
	if err := s.Merge(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Merge: %v", err)
	}
	if s.Len() != 25 {
		t.Fatalf("canceled calls mutated the store: Len = %d", s.Len())
	}
}

func TestStoreDeleteMergeReset(t *testing.T) {
	s, _ := NewStore(smallConfig())
	docs := SyntheticTweets(200, 2000, 11)
	ids, _ := s.Insert(bg, docs)
	if err := s.Delete(bg, ids[5]); err != nil {
		t.Fatal(err)
	}
	res, err := s.Search(bg, docs[5])
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range res.Matches {
		if m.ID == ids[5] {
			t.Fatal("deleted doc returned")
		}
	}
	if err := s.Merge(bg); err != nil {
		t.Fatal(err)
	}
	if st := s.StatsNow(); st.DeltaLen != 0 || st.StaticLen != 200 {
		t.Fatalf("merge state: %+v", st)
	}
	s.Reset(bg)
	if s.Len() != 0 {
		t.Fatal("Reset did not empty store")
	}
	// Reset takes a context like every other mutating call: a canceled one
	// rejects the erasure outright.
	if _, err := s.Insert(bg, docs[:10]); err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(bg)
	cancel()
	if err := s.Reset(canceled); !errors.Is(err, context.Canceled) {
		t.Fatalf("Reset with canceled ctx: %v", err)
	}
	if s.Len() != 10 {
		t.Fatalf("canceled Reset mutated the store: Len = %d", s.Len())
	}
}

func TestStoreQueryBatch(t *testing.T) {
	s, _ := NewStore(smallConfig())
	docs := SyntheticTweets(300, 2000, 13)
	ids, _ := s.Insert(bg, docs)
	res, _, err := s.SearchBatch(bg, docs[:10])
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 10 {
		t.Fatalf("batch size %d", len(res))
	}
	for i := range res {
		if !hasMatch(res[i].Matches, ids[i]) {
			t.Fatalf("batch query %d missing self", i)
		}
	}
}

func TestNewVector(t *testing.T) {
	v, err := NewVector([]uint32{5, 1}, []float32{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if v.NNZ() != 2 || v.Idx[0] != 1 {
		t.Fatalf("NewVector = %+v", v)
	}
}

func TestClusterPublicAPI(t *testing.T) {
	cfg := smallConfig()
	cfg.Capacity = 200
	cl, err := NewCluster(4, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if cl.NumNodes() != 4 {
		t.Fatalf("NumNodes = %d", cl.NumNodes())
	}
	docs := SyntheticTweets(500, 2000, 15)
	ids, err := cl.Insert(bg, docs)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 500 {
		t.Fatalf("ids = %d", len(ids))
	}
	res, err := cl.Search(bg, docs[499])
	if err != nil {
		t.Fatal(err)
	}
	if !hasMatch(res.Matches, ids[499]) {
		t.Fatal("newest doc not found in cluster")
	}
	if err := cl.Delete(bg, ids[499]); err != nil {
		t.Fatal(err)
	}
	if err := cl.Merge(bg); err != nil {
		t.Fatal(err)
	}
	stats, err := cl.Stats(bg)
	if err != nil || len(stats) != 4 {
		t.Fatalf("stats: %v %v", stats, err)
	}
}

// Stats.SearchesServed counts every query a node answers, whichever entry
// point it came in by: Store.Search lands on node.SearchAppend, SearchBatch
// and the coordinator's fan-out on node.SearchBatch, and each must count.
func TestSearchesServedCountsEveryEntryPoint(t *testing.T) {
	s, _ := NewStore(smallConfig())
	docs := SyntheticTweets(60, 2000, 17)
	if _, err := s.Insert(bg, docs); err != nil {
		t.Fatal(err)
	}
	for _, q := range docs[:5] {
		if _, err := s.Search(bg, q); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.StatsNow().SearchesServed; got != 5 {
		t.Fatalf("SearchesServed after 5 Store.Search calls = %d, want 5", got)
	}
	if _, _, err := s.SearchBatch(bg, docs[:7]); err != nil {
		t.Fatal(err)
	}
	if got := s.StatsNow().SearchesServed; got != 12 {
		t.Fatalf("SearchesServed after a 7-query batch more = %d, want 12", got)
	}

	cfg := smallConfig()
	cfg.Capacity = 200
	cl, err := NewCluster(3, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Insert(bg, docs); err != nil {
		t.Fatal(err)
	}
	for _, q := range docs[:4] {
		if _, err := cl.Search(bg, q); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := cl.Stats(bg)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range stats { // scatter: every node answers every query
		if st.SearchesServed != 4 {
			t.Fatalf("node %d SearchesServed after 4 Cluster.Search calls = %d, want 4", i, st.SearchesServed)
		}
	}
}

func TestGlobalIDHelpers(t *testing.T) {
	g := GlobalID(3, 77)
	n, l := SplitGlobalID(g)
	if n != 3 || l != 77 {
		t.Fatalf("split = (%d,%d)", n, l)
	}
}

func TestTuneSelectsFeasibleParams(t *testing.T) {
	docs := SyntheticTweets(1500, 5000, 17)
	tn, err := Tune(docs, TuneOptions{Radius: 0.9, Delta: 0.1, TargetN: 100000})
	if err != nil {
		t.Fatal(err)
	}
	if tn.K%2 != 0 || tn.K < 2 || tn.M < 2 {
		t.Fatalf("bad tuning %+v", tn)
	}
	if tn.L != tn.M*(tn.M-1)/2 {
		t.Fatalf("L inconsistent: %+v", tn)
	}
	if tn.PredictedQueryNS <= 0 || tn.MemoryBytes <= 0 {
		t.Fatalf("predictions missing: %+v", tn)
	}
	// The tuned parameters must construct a working store.
	cfg := Config{Dim: 5000, K: tn.K, M: tn.M, Capacity: 2000}
	s, err := NewStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert(bg, docs[:100]); err != nil {
		t.Fatal(err)
	}
}

func TestTuneValidation(t *testing.T) {
	if _, err := Tune(nil, TuneOptions{}); err == nil {
		t.Fatal("empty sample accepted")
	}
	if _, err := Tune([]Vector{{}, {}}, TuneOptions{}); err == nil {
		t.Fatal("all-empty sample accepted")
	}
}

func TestEncoderPipeline(t *testing.T) {
	e := NewEncoder(1 << 16)
	corpus := []string{
		"breaking news earthquake hits the city",
		"earthquake damage reported downtown",
		"cat videos are the best videos",
		"new cat cafe opens downtown",
		"sports team wins the championship game",
	}
	for _, doc := range corpus {
		e.Observe(doc)
	}
	if e.VocabSize() == 0 || e.Dim() != 1<<16 {
		t.Fatalf("vocab=%d dim=%d", e.VocabSize(), e.Dim())
	}
	v, ok := e.Encode("earthquake downtown")
	if !ok || v.NNZ() != 2 {
		t.Fatalf("encode: ok=%v nnz=%d", ok, v.NNZ())
	}
	if _, ok := e.Encode("zzz qqq www"); ok {
		t.Fatal("unknown-word doc encoded")
	}
	v2, ok := e.ObserveAndEncode("totally fresh words appearing")
	if !ok || v2.NNZ() == 0 {
		t.Fatal("ObserveAndEncode failed on new words")
	}
}

// End-to-end: text in, neighbors out, via the full public pipeline.
func TestTextToNeighborsEndToEnd(t *testing.T) {
	e := NewEncoder(1 << 14)
	docsText := []string{
		"the quick brown fox jumps over the lazy dog",
		"quick brown fox jumps over a lazy dog today",
		"stock market rallies on earnings news",
		"earnings news pushes stock market higher",
		"completely unrelated gardening tips for spring",
	}
	for _, d := range docsText {
		e.Observe(d)
	}
	var vecs []Vector
	for _, d := range docsText {
		v, ok := e.Encode(d)
		if !ok {
			t.Fatalf("encode failed for %q", d)
		}
		vecs = append(vecs, v)
	}
	s, err := NewStore(Config{Dim: 1 << 14, K: 8, M: 8, Capacity: 100, Radius: 1.2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert(bg, vecs); err != nil {
		t.Fatal(err)
	}
	q, _ := e.Encode("quick brown fox and a lazy dog")
	res, err := s.Search(bg, q)
	if err != nil {
		t.Fatal(err)
	}
	ids := map[uint64]bool{}
	for _, m := range res.Matches {
		ids[m.ID] = true
	}
	if !ids[0] && !ids[1] {
		t.Fatalf("fox/dog documents not retrieved: %v", res)
	}
	if ids[4] {
		t.Fatal("gardening doc retrieved for fox query")
	}
}

func TestSyntheticTweetsDeterministic(t *testing.T) {
	a := SyntheticTweets(50, 1000, 3)
	b := SyntheticTweets(50, 1000, 3)
	for i := range a {
		if a[i].NNZ() != b[i].NNZ() {
			t.Fatal("SyntheticTweets not deterministic")
		}
	}
}

// Flush is a pure barrier: it waits out background merges without forcing
// one, and a flushed store that crossed η·C repeatedly has merged.
func TestStoreFlushSettlesBackgroundMerges(t *testing.T) {
	s, err := NewStore(Config{Dim: 2000, K: 8, M: 6, Capacity: 2000, DeltaFraction: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	// Flush on an idle store is a no-op.
	if err := s.Flush(bg); err != nil {
		t.Fatal(err)
	}
	if st := s.StatsNow(); st.Merges != 0 || st.MergeInFlight {
		t.Fatalf("idle flush changed state: %+v", st)
	}
	docs := SyntheticTweets(800, 2000, 21)
	for off := 0; off < len(docs); off += 80 {
		if _, err := s.Insert(bg, docs[off:off+80]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(bg); err != nil {
		t.Fatal(err)
	}
	st := s.StatsNow()
	if st.Merges == 0 {
		t.Fatal("no background merges despite crossing η·C repeatedly")
	}
	if st.MergeInFlight || st.MergePendingRows != 0 {
		t.Fatalf("Flush returned with a merge still in flight: %+v", st)
	}
	// Flush does not force a rotation: rows under η·C may stay in the delta.
	if st.StaticLen+st.DeltaLen != 800 {
		t.Fatalf("rows after flush: %+v", st)
	}
}

// Queries issued while Merge runs must complete and stay correct — the
// Store-level face of the non-blocking merge pipeline. (The deterministic
// held-open-merge variant lives in internal/node; this exercises the real
// end-to-end path.)
func TestStoreQueriesConcurrentWithMerge(t *testing.T) {
	s, err := NewStore(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	docs := SyntheticTweets(1500, 2000, 23)
	if _, err := s.Insert(bg, docs); err != nil {
		t.Fatal(err)
	}
	mergeErr := make(chan error, 1)
	go func() { mergeErr <- s.Merge(bg) }()
	for i := 0; i < 1500; i += 97 {
		res, err := s.Search(bg, docs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !hasMatch(res.Matches, uint64(i)) {
			t.Fatalf("doc %d missing while merge in flight", i)
		}
	}
	if err := <-mergeErr; err != nil {
		t.Fatal(err)
	}
	if st := s.StatsNow(); st.DeltaLen != 0 || st.StaticLen != 1500 {
		t.Fatalf("post-merge state: %+v", st)
	}
}
