package plsh

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
)

// TestConfigRejectsNegatives: normalize must refuse values the node layer
// would otherwise silently rewrite, so Store.Config never reports a
// setting that is not in effect.
func TestConfigRejectsNegatives(t *testing.T) {
	base := smallConfig()
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"negative radius", func(c *Config) { c.Radius = -0.5 }},
		{"negative capacity", func(c *Config) { c.Capacity = -1 }},
		{"negative delta fraction", func(c *Config) { c.DeltaFraction = -0.1 }},
		{"delta fraction over 1", func(c *Config) { c.DeltaFraction = 1.5 }},
		{"NaN radius", func(c *Config) { c.Radius = math.NaN() }},
		{"+Inf radius", func(c *Config) { c.Radius = math.Inf(1) }},
		{"NaN delta fraction", func(c *Config) { c.DeltaFraction = math.NaN() }},
		{"NaN routing recall", func(c *Config) { c.RoutingRecall = math.NaN() }},
	}
	for _, tc := range cases {
		cfg := base
		tc.mut(&cfg)
		if _, err := NewStore(cfg); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
		if _, err := NewCluster(2, 0, cfg); err == nil {
			t.Errorf("%s accepted by NewCluster", tc.name)
		}
	}
	// A NaN would otherwise reach the router, whose probe sets then never
	// meet the recall target, and every query would silently scatter.
	addr := startTestNode(t, 100)
	for _, cfg := range []Config{
		{Dim: 2000, K: 8, M: 6, Seed: 42, RoutingRecall: math.NaN()},
		{Dim: 2000, K: 8, M: 6, Seed: 42, Radius: math.NaN()},
	} {
		if cl, err := DialCluster(bg, []string{addr}, 1, WithPartitioned(cfg)); err == nil {
			cl.Close()
			t.Errorf("partitioned dial accepted %+v", cfg)
		}
	}
}

// TestConfigReportsEffectiveValues: defaults are filled in normalize, so
// what Config() reports is what the node runs with.
func TestConfigReportsEffectiveValues(t *testing.T) {
	s, err := NewStore(Config{Dim: 2000})
	if err != nil {
		t.Fatal(err)
	}
	cfg := s.Config()
	if cfg.Capacity != 1<<20 {
		t.Fatalf("Capacity reported %d, node runs with %d", cfg.Capacity, 1<<20)
	}
	if cfg.DeltaFraction != 0.1 {
		t.Fatalf("DeltaFraction reported %v, node runs with 0.1", cfg.DeltaFraction)
	}
	if cfg.Radius != 0.9 {
		t.Fatalf("Radius reported %v, node runs with 0.9", cfg.Radius)
	}
}

// TestStoreDocBounds: the Doc-panic satellite at the public layer — an
// out-of-range id reports (zero, false) instead of crashing the process.
func TestStoreDocBounds(t *testing.T) {
	s, _ := NewStore(smallConfig())
	docs := SyntheticTweets(10, 2000, 3)
	ids, err := s.Insert(bg, docs)
	if err != nil {
		t.Fatal(err)
	}
	if v, known, err := s.Doc(bg, ids[4]); err != nil || !known || v.NNZ() == 0 {
		t.Fatal("valid doc not returned")
	}
	if v, known, err := s.Doc(bg, 10); err != nil || known || v.NNZ() != 0 {
		t.Fatal("out-of-range doc returned")
	}
	if _, known, _ := s.Doc(bg, math.MaxUint32); known {
		t.Fatal("huge id returned a doc")
	}
	if _, known, _ := s.Doc(bg, GlobalID(3, 0)); known {
		t.Fatal("foreign-node id returned a doc from a store")
	}
}

// TestStoreDeleteNotFound: deleting a never-inserted id is distinguishable
// from a real tombstone, on Store and Cluster alike.
func TestStoreDeleteNotFound(t *testing.T) {
	s, _ := NewStore(smallConfig())
	ids, err := s.Insert(bg, SyntheticTweets(10, 2000, 5))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(bg, ids[0]); err != nil {
		t.Fatalf("valid delete: %v", err)
	}
	if err := s.Delete(bg, ids[0]); err != nil {
		t.Fatalf("repeated delete of a real doc must stay idempotent: %v", err)
	}
	if err := s.Delete(bg, 10); !errors.Is(err, ErrNotFound) {
		t.Fatalf("out-of-range delete: want ErrNotFound, got %v", err)
	}

	cl, err := NewCluster(2, 0, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	gids, err := cl.Insert(bg, SyntheticTweets(10, 2000, 5))
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Delete(bg, gids[0]); err != nil {
		t.Fatalf("valid cluster delete: %v", err)
	}
	if err := cl.Delete(bg, GlobalID(99, 0)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("bad node delete: want ErrNotFound, got %v", err)
	}
	if err := cl.Delete(bg, GlobalID(0, 5000)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("bad local-id delete: want ErrNotFound, got %v", err)
	}
}

// TestStoreSaveOpenOracle is the acceptance round-trip at the suite's
// geometry (K 16, M 16): Save → Open must keep every answer, and both
// stores answer every document as the query exactly as the sketch oracle
// does, tombstones included.
func TestStoreSaveOpenOracle(t *testing.T) {
	cfg := Config{Dim: 2000, K: 16, M: 16, Capacity: 2000}
	s, err := NewStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	docs := SyntheticTweets(400, 2000, 23)
	ids, err := s.Insert(bg, docs)
	if err != nil {
		t.Fatal(err)
	}
	o := newOracle(t, cfg, docs)
	for _, i := range []int{3, 111, 222} {
		if err := s.Delete(bg, ids[i]); err != nil {
			t.Fatal(err)
		}
		o.Delete(uint32(i))
	}

	// An in-memory Store refuses Save; SaveTo exports it, and the Store
	// opened over the export is durable, so Save checkpoints it.
	if err := s.Save(bg); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("Save on in-memory store: want ErrNotDurable, got %v", err)
	}
	dir := t.TempDir()
	if err := s.SaveTo(bg, dir); err != nil {
		t.Fatal(err)
	}
	re, err := Open(bg, dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if err := re.Save(bg); err != nil {
		t.Fatalf("Save on durable store: %v", err)
	}
	if re.Len() != s.Len() {
		t.Fatalf("reopened Len %d vs %d", re.Len(), s.Len())
	}

	radius := s.Config().Radius
	answers := 0
	for _, st := range []struct {
		name  string
		store *Store
	}{{"saved", s}, {"reopened", re}} {
		for qi, q := range docs {
			got, err := st.store.Search(bg, q)
			if err != nil {
				t.Fatal(err)
			}
			requireMatchesEqual(t, fmt.Sprintf("%s, query %d", st.name, qi), got.Matches,
				wantMatches(o, nil, q, radius, 0))
			answers += nonSelf(got.Matches, ids[qi])
		}
	}
	requireNonSelfFloor(t, answers, 120)
}

// TestOpenDurableLifecycle: the ctx-aware public open/journal/reopen path,
// including writes after reopen and a second recovery.
func TestOpenDurableLifecycle(t *testing.T) {
	dir := t.TempDir()
	cfg := smallConfig()
	s, err := Open(bg, dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	docs := SyntheticTweets(120, 2000, 29)
	if _, err := s.Insert(bg, docs[:60]); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen, write more, delete, reopen again.
	s2, err := Open(bg, dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 60 {
		t.Fatalf("first recovery: Len %d", s2.Len())
	}
	ids, err := s2.Insert(bg, docs[60:])
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Delete(bg, ids[0]); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(bg, dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if s3.Len() != 120 {
		t.Fatalf("second recovery: Len %d", s3.Len())
	}
	res, err := s3.Search(bg, docs[60])
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range res.Matches {
		if m.ID == ids[0] {
			t.Fatal("journaled tombstone lost across recovery")
		}
	}
	// A canceled recovery context aborts the open.
	canceled, cancel := context.WithCancel(bg)
	cancel()
	if _, err := Open(canceled, dir, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled open: %v", err)
	}
}

// TestClusterDurableSaveAllRecovery: a durable in-process cluster —
// per-node subdirectories under one root — settles with Flush,
// checkpoints with Save, and a fresh cluster over the same root recovers
// identical answers.
func TestClusterDurableSaveAllRecovery(t *testing.T) {
	cfg := smallConfig()
	cfg.Capacity = 200
	cfg.Dir = t.TempDir()
	cl, err := NewCluster(3, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	docs := SyntheticTweets(300, 2000, 37)
	ids, err := cl.Insert(bg, docs)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Delete(bg, ids[7]); err != nil {
		t.Fatal(err)
	}
	// Flush waits out every node's background merge.
	if err := cl.Flush(bg); err != nil {
		t.Fatal(err)
	}
	stats, err := cl.Stats(bg)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range stats {
		if st.MergeInFlight || st.MergePendingRows != 0 {
			t.Fatalf("node %d after Flush: merge in flight %v, %d rows pending", i, st.MergeInFlight, st.MergePendingRows)
		}
	}
	want := make([][]Match, 0, 20)
	queries := docs[:20]
	for _, q := range queries {
		res, err := cl.Search(bg, q)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res.Matches)
	}
	if err := cl.Save(bg); err != nil {
		t.Fatal(err)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := NewCluster(3, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for qi, q := range queries {
		res, err := re.Search(bg, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Matches) != len(want[qi]) {
			t.Fatalf("query %d: %d results after cluster recovery, want %d", qi, len(res.Matches), len(want[qi]))
		}
		seen := map[uint64]float64{}
		for _, m := range want[qi] {
			seen[m.ID] = m.Dist
		}
		for _, m := range res.Matches {
			if d, ok := seen[m.ID]; !ok || d != m.Dist {
				t.Fatalf("query %d: match %+v differs after cluster recovery", qi, m)
			}
		}
	}

	// An in-memory cluster refuses Save rather than pretending.
	mem, err := NewCluster(2, 0, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	if err := mem.Save(bg); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("Save on in-memory cluster: want ErrNotDurable, got %v", err)
	}
}
