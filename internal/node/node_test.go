package node

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"testing"

	"plsh/internal/core"
	"plsh/internal/corpus"
	"plsh/internal/israce"
	"plsh/internal/lshhash"
	"plsh/internal/sparse"
)

var bg = context.Background()

func testConfig(capacity int) Config {
	return Config{
		Params:        lshhash.Params{Dim: 2000, K: 8, M: 6, Seed: 42},
		Capacity:      capacity,
		DeltaFraction: 0.1,
		AutoMerge:     true,
		Build:         core.Defaults(),
		Query:         core.QueryDefaults(),
	}
}

func testDocs(n int, seed uint64) []sparse.Vector {
	c := corpus.Generate(corpus.Twitter(n, 2000, seed))
	out := make([]sparse.Vector, n)
	for i := 0; i < n; i++ {
		out[i] = c.Mat.Row(i)
	}
	return out
}

func mustQuery(t *testing.T, n *Node, q sparse.Vector) []core.Neighbor {
	t.Helper()
	res, err := n.SearchAppend(bg, nil, q, SearchParams{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func mustMerge(t *testing.T, n *Node) {
	t.Helper()
	if err := n.MergeNow(bg); err != nil {
		t.Fatal(err)
	}
}

func neighborIDs(ns []core.Neighbor) map[uint32]bool {
	m := map[uint32]bool{}
	for _, nb := range ns {
		m[nb.ID] = true
	}
	return m
}

// TestOpenRejectsOutOfRangeConfig: a setting outside its range is an error
// from Open, never silently replaced by its default — zero alone means
// "default" — so a node runs at the capacity, η and radius it was given.
func TestOpenRejectsOutOfRangeConfig(t *testing.T) {
	for name, edit := range map[string]func(*Config){
		"negative capacity":       func(c *Config) { c.Capacity = -1 },
		"delta fraction above 1":  func(c *Config) { c.DeltaFraction = 1.5 },
		"negative delta fraction": func(c *Config) { c.DeltaFraction = -0.1 },
		"NaN delta fraction":      func(c *Config) { c.DeltaFraction = math.NaN() },
		"negative radius":         func(c *Config) { c.Query.Radius = -0.5 },
		"+Inf radius":             func(c *Config) { c.Query.Radius = math.Inf(1) },
	} {
		cfg := testConfig(100)
		edit(&cfg)
		if n, err := Open(bg, cfg); err == nil {
			t.Errorf("%s: accepted, running at capacity %d, η %v, radius %v",
				name, n.cfg.Capacity, n.cfg.DeltaFraction, n.cfg.Query.Radius)
		}
	}
	for _, c := range []struct{ eta, radius, wantEta, wantRadius float64 }{
		{0, 0, 0.1, 0.9},
		{1, 1.2, 1, 1.2},
	} {
		cfg := testConfig(100)
		cfg.DeltaFraction, cfg.Query.Radius = c.eta, c.radius
		n, err := Open(bg, cfg)
		if err != nil {
			t.Fatalf("η %v, radius %v: %v", c.eta, c.radius, err)
		}
		if n.cfg.DeltaFraction != c.wantEta || n.cfg.Query.Radius != c.wantRadius {
			t.Fatalf("η %v, radius %v: running at η %v, radius %v; want %v, %v",
				c.eta, c.radius, n.cfg.DeltaFraction, n.cfg.Query.Radius, c.wantEta, c.wantRadius)
		}
	}
}

func TestInsertQueryRoundTrip(t *testing.T) {
	n, err := Open(bg, testConfig(1000))
	if err != nil {
		t.Fatal(err)
	}
	vs := testDocs(200, 1)
	ids, err := n.Insert(bg, vs)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 200 || ids[0] != 0 || ids[199] != 199 {
		t.Fatalf("bad IDs: %v...%v", ids[0], ids[199])
	}
	// Every inserted doc must find itself.
	for i := 0; i < 200; i += 11 {
		got := neighborIDs(mustQuery(t, n, vs[i]))
		if !got[uint32(i)] {
			t.Fatalf("doc %d not found after insert", i)
		}
	}
	// Quiesce the auto-merge the inserts triggered so no background
	// goroutine outlives the test.
	if err := n.Flush(bg); err != nil {
		t.Fatal(err)
	}
}

// The central streaming invariant: a node with any static/delta split
// answers exactly like a fully static node over the same data.
func TestStaticDeltaSplitEquivalence(t *testing.T) {
	vs := testDocs(400, 3)
	queries := testDocs(30, 9)

	// Reference: everything static.
	ref, _ := Open(bg, testConfig(1000))
	if _, err := ref.Insert(bg, vs); err != nil {
		t.Fatal(err)
	}
	mustMerge(t, ref)
	if ref.DeltaLen() != 0 || ref.StaticLen() != 400 {
		t.Fatalf("reference not fully static: %d/%d", ref.StaticLen(), ref.DeltaLen())
	}

	// Subject: half static, half delta (AutoMerge off to hold the split).
	cfg := testConfig(1000)
	cfg.AutoMerge = false
	sub, _ := Open(bg, cfg)
	if _, err := sub.Insert(bg, vs[:200]); err != nil {
		t.Fatal(err)
	}
	mustMerge(t, sub)
	if _, err := sub.Insert(bg, vs[200:]); err != nil {
		t.Fatal(err)
	}
	if sub.StaticLen() != 200 || sub.DeltaLen() != 200 {
		t.Fatalf("split not held: %d/%d", sub.StaticLen(), sub.DeltaLen())
	}

	for qi, q := range queries {
		a := mustQuery(t, ref, q)
		b := mustQuery(t, sub, q)
		core.SortNeighbors(a)
		core.SortNeighbors(b)
		if len(a) != len(b) {
			t.Fatalf("query %d: static-only %d results, split %d", qi, len(a), len(b))
		}
		for i := range a {
			if a[i].ID != b[i].ID {
				t.Fatalf("query %d result %d: %d vs %d", qi, i, a[i].ID, b[i].ID)
			}
		}
	}
}

func TestAutoMergeTriggers(t *testing.T) {
	cfg := testConfig(1000) // η·C = 100
	n, _ := Open(bg, cfg)
	vs := testDocs(250, 5)
	if _, err := n.Insert(bg, vs[:90]); err != nil {
		t.Fatal(err)
	}
	if n.Stats().Merges != 0 {
		t.Fatal("merge before threshold")
	}
	if _, err := n.Insert(bg, vs[90:150]); err != nil { // delta 150 > 100 → merge
		t.Fatal(err)
	}
	// The trigger starts a background merge; Flush waits it out without
	// forcing another.
	if err := n.Flush(bg); err != nil {
		t.Fatal(err)
	}
	st := n.Stats()
	if st.Merges != 1 {
		t.Fatalf("Merges = %d, want 1", st.Merges)
	}
	if st.StaticLen != 150 || st.DeltaLen != 0 {
		t.Fatalf("post-merge state: %d/%d", st.StaticLen, st.DeltaLen)
	}
	// Data still queryable after merge.
	got := neighborIDs(mustQuery(t, n, vs[120]))
	if !got[120] {
		t.Fatal("doc lost in merge")
	}
}

func TestCapacityEnforced(t *testing.T) {
	n, _ := Open(bg, testConfig(100))
	vs := testDocs(150, 7)
	if _, err := n.Insert(bg, vs[:100]); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Insert(bg, vs[100:]); !errors.Is(err, ErrFull) {
		t.Fatalf("expected ErrFull, got %v", err)
	}
	if n.Len() != 100 {
		t.Fatalf("failed insert mutated node: Len = %d", n.Len())
	}
	if err := n.Flush(bg); err != nil { // quiesce the triggered auto-merge
		t.Fatal(err)
	}
}

func TestCanceledContextRejected(t *testing.T) {
	n, _ := Open(bg, testConfig(100))
	vs := testDocs(10, 7)
	if _, err := n.Insert(bg, vs[:5]); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(bg)
	cancel()
	if _, err := n.Insert(ctx, vs[5:]); !errors.Is(err, context.Canceled) {
		t.Fatalf("Insert on canceled ctx: %v", err)
	}
	if n.Len() != 5 {
		t.Fatalf("canceled insert mutated node: Len = %d", n.Len())
	}
	if _, err := n.SearchAppend(ctx, nil, vs[0], SearchParams{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Search on canceled ctx: %v", err)
	}
	if _, err := n.SearchBatch(ctx, vs[:3], SearchParams{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("SearchBatch on canceled ctx: %v", err)
	}
	if _, err := n.SearchAppend(ctx, nil, vs[0], SearchParams{K: 3}); !errors.Is(err, context.Canceled) {
		t.Fatalf("top-k Search on canceled ctx: %v", err)
	}
	if err := n.MergeNow(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("MergeNow on canceled ctx: %v", err)
	}
	if err := n.Flush(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Flush on canceled ctx: %v", err)
	}
	if err := n.Retire(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Retire on canceled ctx: %v", err)
	}
	if n.Len() != 5 {
		t.Fatalf("canceled Retire mutated node: Len = %d", n.Len())
	}
}

func TestDeleteExcludesFromBothStructures(t *testing.T) {
	cfg := testConfig(1000)
	cfg.AutoMerge = false
	n, _ := Open(bg, cfg)
	vs := testDocs(100, 11)
	n.Insert(bg, vs[:50])
	mustMerge(t, n) // ids 0..49 static
	n.Insert(bg, vs[50:])
	// Delete one static and one delta doc.
	n.Delete(10)
	n.Delete(75)
	if got := neighborIDs(mustQuery(t, n, vs[10])); got[10] {
		t.Fatal("deleted static doc returned")
	}
	if got := neighborIDs(mustQuery(t, n, vs[75])); got[75] {
		t.Fatal("deleted delta doc returned")
	}
	if n.Stats().Deleted != 2 {
		t.Fatalf("Deleted = %d", n.Stats().Deleted)
	}
	// Deletion survives a merge (the bitvector is positional and rows are
	// preserved in order).
	mustMerge(t, n)
	if got := neighborIDs(mustQuery(t, n, vs[75])); got[75] {
		t.Fatal("deleted doc resurfaced after merge")
	}
}

func TestRetire(t *testing.T) {
	n, _ := Open(bg, testConfig(500))
	vs := testDocs(200, 13)
	n.Insert(bg, vs)
	n.Delete(5)
	n.Retire(bg)
	st := n.Stats()
	if st.StaticLen != 0 || st.DeltaLen != 0 || st.Deleted != 0 || st.Merges != 0 {
		t.Fatalf("retire left state: %+v", st)
	}
	if res := mustQuery(t, n, vs[0]); len(res) != 0 {
		t.Fatal("retired node still answers")
	}
	// Node is reusable after retirement.
	if _, err := n.Insert(bg, vs[:50]); err != nil {
		t.Fatal(err)
	}
	if got := neighborIDs(mustQuery(t, n, vs[20])); !got[20] {
		t.Fatal("node unusable after retire")
	}
}

func TestQueryBatchMatchesSingles(t *testing.T) {
	cfg := testConfig(1000)
	cfg.AutoMerge = false
	n, _ := Open(bg, cfg)
	vs := testDocs(300, 15)
	n.Insert(bg, vs[:150])
	mustMerge(t, n)
	n.Insert(bg, vs[150:])
	queries := testDocs(25, 17)
	batch, err := n.SearchBatch(bg, queries, SearchParams{})
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		single := mustQuery(t, n, q)
		core.SortNeighbors(single)
		got := append([]core.Neighbor(nil), batch[i]...)
		core.SortNeighbors(got)
		if len(single) != len(got) {
			t.Fatalf("query %d: %d vs %d", i, len(single), len(got))
		}
		for j := range single {
			if single[j].ID != got[j].ID {
				t.Fatalf("query %d result %d differs", i, j)
			}
		}
	}
}

// TestSearchBatchCarvesWorkerArrays: a batch's lists are carved from the
// workers' answer arrays, so each must equal SearchAppend's answer for its
// query — also when a worker's queries outgrow the room reserved for them
// (30 copies of one document answer 30 apiece, unbounded) — hold no spare
// capacity an append could write the next list through, and be nil for a
// query with no answer.
func TestSearchBatchCarvesWorkerArrays(t *testing.T) {
	cfg := testConfig(1000)
	cfg.Query.Workers = 3
	n, _ := Open(bg, cfg)
	vs := testDocs(200, 19)
	dup := vs[7]
	for range 30 {
		vs = append(vs, dup)
	}
	n.Insert(bg, vs[:150])
	mustMerge(t, n)
	n.Insert(bg, vs[150:])
	var queries []sparse.Vector
	for i := range 13 {
		queries = append(queries, dup, vs[i*11], sparse.Vector{})
	}
	for _, p := range []SearchParams{{}, {K: 2}, {K: 50}} {
		batch, err := n.SearchBatch(bg, queries, p)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range queries {
			want, err := n.SearchAppend(bg, nil, q, p)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(batch[i], want) {
				t.Fatalf("K %d, query %d: batch answers %v, SearchAppend %v", p.K, i, batch[i], want)
			}
			if len(want) == 0 && batch[i] != nil {
				t.Fatalf("K %d, query %d: no answer must be a nil list", p.K, i)
			}
			if cap(batch[i]) != len(batch[i]) {
				t.Fatalf("K %d, query %d: list has %d spare capacity", p.K, i, cap(batch[i])-len(batch[i]))
			}
		}
		if p.K == 0 && len(batch[0]) < 30 {
			t.Fatalf("the duplicated document answers %d, want ≥ 30", len(batch[0]))
		}
	}
}

// A K-bounded Search must equal the full R-near answer sorted by distance
// and truncated to k — same candidates, bounded selection.
func TestQueryTopKMatchesTruncatedQuery(t *testing.T) {
	n, _ := Open(bg, testConfig(1000))
	t.Cleanup(func() { n.Flush(bg) }) // quiesce triggered auto-merges
	vs := testDocs(400, 27)
	if _, err := n.Insert(bg, vs); err != nil {
		t.Fatal(err)
	}
	queries := testDocs(20, 29)
	for _, k := range []int{1, 3, 10} {
		for qi, q := range queries {
			full := mustQuery(t, n, q)
			core.SortNeighbors(full)
			want := full
			if k < len(want) {
				want = want[:k]
			}
			got, err := n.SearchAppend(bg, nil, q, SearchParams{K: k})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("k=%d query %d: %d results, want %d", k, qi, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("k=%d query %d entry %d: %+v, want %+v", k, qi, i, got[i], want[i])
				}
			}
		}
	}

	// A cut inside an equal-distance run: four copies of a near neighbor
	// of q tie behind q's own copy, inserted after them, and K = 3 keeps q
	// and the two lowest ids of the tie. The caller's entries ahead of the
	// appended span are left as they were, though one of them would sort
	// first.
	q := testDocs(1, 31)[0]
	near := q.Clone()
	near.Val[0] *= 0.8
	near.Normalize()
	ids, err := n.Insert(bg, []sparse.Vector{near, near, near, near, q})
	if err != nil {
		t.Fatal(err)
	}
	prefix := []core.Neighbor{{ID: 99999, Dist: 9}, {ID: 88888, Dist: -1}}
	dst := append(make([]core.Neighbor, 0, 64), prefix...)
	got, err := n.SearchAppend(bg, dst, q, SearchParams{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(prefix)+3 || !slices.Equal(got[:len(prefix)], prefix) {
		t.Fatalf("K=3 appended to %+v: %+v", prefix, got)
	}
	ans := got[len(prefix):]
	if ans[0].ID != ids[4] || ans[1].ID != ids[0] || ans[2].ID != ids[1] ||
		ans[1].Dist != ans[2].Dist || ans[0].Dist >= ans[1].Dist {
		t.Fatalf("K=3 over q (id %d) and a tie of ids %v: %+v", ids[4], ids[:4], ans)
	}
}

func TestConcurrentQueriesAndInserts(t *testing.T) {
	cfg := testConfig(5000)
	n, _ := Open(bg, cfg)
	t.Cleanup(func() { n.Flush(bg) }) // quiesce triggered auto-merges
	vs := testDocs(2000, 19)
	n.Insert(bg, vs[:500])
	queries := testDocs(20, 21)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				q := queries[(g*20+rep)%len(queries)]
				n.SearchAppend(bg, nil, q, SearchParams{})
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 500; i+50 <= 2000; i += 50 {
			if _, err := n.Insert(bg, vs[i:i+50]); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	if n.Len() != 2000 {
		t.Fatalf("Len = %d after concurrent run", n.Len())
	}
	// All docs findable afterwards.
	for i := 0; i < 2000; i += 199 {
		if got := neighborIDs(mustQuery(t, n, vs[i])); !got[uint32(i)] {
			t.Fatalf("doc %d lost", i)
		}
	}
}

func TestStatsTrackMaintenance(t *testing.T) {
	n, _ := Open(bg, testConfig(1000))
	vs := testDocs(300, 23)
	n.Insert(bg, vs) // triggers ≥1 background auto-merge (η·C = 100)
	if err := n.Flush(bg); err != nil {
		t.Fatal(err)
	}
	st := n.Stats()
	if st.Merges < 1 {
		t.Fatalf("Merges = %d", st.Merges)
	}
	if st.TotalMergeNS <= 0 || st.InsertNS <= 0 {
		t.Fatalf("maintenance times not tracked: %+v", st)
	}
	if st.MemoryBytes <= 0 {
		t.Fatal("MemoryBytes not reported")
	}
}

func TestDocReturnsStoredVector(t *testing.T) {
	n, _ := Open(bg, testConfig(100))
	vs := testDocs(10, 25)
	ids, _ := n.Insert(bg, vs)
	for i, id := range ids {
		got, known := n.Doc(id)
		if !known || got.NNZ() != vs[i].NNZ() {
			t.Fatalf("doc %d NNZ mismatch", i)
		}
		for j := range got.Idx {
			if got.Idx[j] != vs[i].Idx[j] || got.Val[j] != vs[i].Val[j] {
				t.Fatalf("doc %d content mismatch", i)
			}
		}
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	cfg := testConfig(100)
	cfg.Params.K = 7 // odd
	if _, err := Open(bg, cfg); err == nil {
		t.Fatal("invalid params accepted")
	}
}

func TestEmptyInsertNoop(t *testing.T) {
	n, _ := Open(bg, testConfig(100))
	ids, err := n.Insert(bg, nil)
	if err != nil || ids != nil {
		t.Fatalf("empty insert: ids=%v err=%v", ids, err)
	}
}

// TestDocKnownForEmptyDocument: Doc's known bool is the node's
// authoritative insertion record, not an inference from content — an
// inserted document that happens to be empty (possible through the raw
// node API, unlike the public Store which rejects empties) still reports
// known, and a never-inserted id reports unknown even though both have
// zero NNZ.
func TestDocKnownForEmptyDocument(t *testing.T) {
	n, err := Open(bg, testConfig(100))
	if err != nil {
		t.Fatal(err)
	}
	docs := testDocs(3, 91)
	docs[1] = sparse.Vector{} // empty-adjacent: no terms at all
	ids, err := n.Insert(bg, docs)
	if err != nil {
		t.Fatal(err)
	}
	v, known := n.Doc(ids[1])
	if !known {
		t.Fatal("inserted empty document reported unknown")
	}
	if v.NNZ() != 0 {
		t.Fatal("empty document came back with terms")
	}
	if _, known := n.Doc(3); known {
		t.Fatal("never-inserted id reported known")
	}
}

// TestNodeSearchParams: the request-scoped parameters reach both halves
// of the snapshot — static engine and delta segments — without a merge.
func TestNodeSearchParams(t *testing.T) {
	cfg := testConfig(2000)
	cfg.AutoMerge = false // hold a static/delta split open
	n, err := Open(bg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	docs := testDocs(600, 93)
	if _, err := n.Insert(bg, docs[:300]); err != nil {
		t.Fatal(err)
	}
	if err := n.MergeNow(bg); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Insert(bg, docs[300:]); err != nil {
		t.Fatal(err)
	}
	if n.StaticLen() == 0 || n.DeltaLen() == 0 {
		t.Fatalf("split not held: static=%d delta=%d", n.StaticLen(), n.DeltaLen())
	}
	oracle := func(q sparse.Vector, radius float64) map[uint32]bool {
		thr := sparse.CosThreshold(radius)
		out := map[uint32]bool{}
		for i, d := range docs {
			if sparse.Dot(q, d) >= thr {
				out[uint32(i)] = true
			}
		}
		return out
	}
	for qi := 0; qi < len(docs); qi += 53 {
		q := docs[qi]
		for _, radius := range []float64{0.9, 1.2} {
			res, err := n.SearchAppend(bg, nil, q, SearchParams{Radius: radius})
			if err != nil {
				t.Fatal(err)
			}
			want := oracle(q, radius)
			for _, nb := range res {
				if !want[nb.ID] {
					t.Fatalf("radius %v: doc %d outside radius returned", radius, nb.ID)
				}
			}
			// The self-match (distance 0) always collides with itself.
			found := false
			for _, nb := range res {
				if nb.ID == uint32(qi) {
					found = true
				}
			}
			if !found {
				t.Fatalf("radius %v: query %d did not find itself", radius, qi)
			}
			// Sorted canonical order.
			for i := 1; i < len(res); i++ {
				a, b := res[i-1], res[i]
				if a.Dist > b.Dist || (a.Dist == b.Dist && a.ID >= b.ID) {
					t.Fatalf("radius %v: answers not in canonical order at %d", radius, i)
				}
			}
		}
		// K bounds and orders.
		topk, err := n.SearchAppend(bg, nil, q, SearchParams{K: 3})
		if err != nil {
			t.Fatal(err)
		}
		if len(topk) > 3 {
			t.Fatalf("K=3 answered %d", len(topk))
		}
	}
}

// TestSearchAppendDoesNotAllocate: with the pools warm and dst at
// capacity, a search over a static index plus frozen delta segments — the
// engine's workspace, the segment scratch, the shared verify kernel, the
// canonical sort — allocates nothing.
func TestSearchAppendDoesNotAllocate(t *testing.T) {
	if israce.Enabled {
		t.Skip("sync.Pool drops workspaces at random under -race")
	}
	cfg := testConfig(2000)
	cfg.AutoMerge = false // hold the static/delta split open
	n, err := Open(bg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	docs := testDocs(600, 93)
	if _, err := n.Insert(bg, docs[:300]); err != nil {
		t.Fatal(err)
	}
	mustMerge(t, n)
	// 200 then 40 rows: too uneven to coalesce, so two segments stay.
	for _, batch := range [][]sparse.Vector{docs[300:500], docs[500:540]} {
		if _, err := n.Insert(bg, batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Delete(7); err != nil {
		t.Fatal(err)
	}
	if segs := len(n.snap.Load().segs); n.StaticLen() != 300 || segs != 2 {
		t.Fatalf("want a static index plus two frozen segments, have static=%d segments=%d", n.StaticLen(), segs)
	}
	queries := docs[:540]
	dst := make([]core.Neighbor, 0, len(docs))
	search := func(p SearchParams) {
		for i := 0; i < len(queries); i += 37 {
			if _, err := n.SearchAppend(bg, dst, queries[i], p); err != nil {
				t.Fatal(err)
			}
		}
	}
	search(SearchParams{}) // warm both pools and grow the segment bitvector
	for _, p := range []SearchParams{{}, {K: 5}, {Radius: 1.1}} {
		if allocs := testing.AllocsPerRun(50, func() { search(p) }); allocs != 0 {
			t.Errorf("%+v: SearchAppend allocates %.1f times per pass, want 0", p, allocs)
		}
	}
}

// TestFleetShareMemoryAndAnswers: a node of the benchmark suite's geometry
// (K 16, M 16, the tweet corpus) holding as many rows as the smallest and
// the largest group fleet_routed_batch's router makes of that corpus, 7 199
// and 8 878, reports at most 371 and 390 bytes a row beside the sign-bit
// column's exact 16 — its tables' bucket directories index 11 and 12 key
// bits (core.DirectoryBits), not all 16, in 64-bucket offset blocks; at one
// item a bucket, 13 and 14, they held 446.4 and 493.7, and with a bitmap
// and an entry an occupied bucket 386.9 and 420.3 — and answers 1 000
// queries, half of them stored rows,
// exactly as a scan of every row's sketch does: the rows sharing a table
// key with the query, within the Hamming bound of its sign bits and within
// the radius. The bytes are a count: this test cannot flake on a slow host.
func TestFleetShareMemoryAndAnswers(t *testing.T) {
	const queries = 1000
	for _, c := range []struct {
		rows  int
		limit float64
	}{
		{7199, 371},
		{8878, 390},
	} {
		t.Run(fmt.Sprint(c.rows), func(t *testing.T) {
			cfg := testConfig(c.rows)
			cfg.Params = lshhash.Params{Dim: 50000, K: 16, M: 16, Seed: 1}
			cfg.AutoMerge = false
			col := corpus.Generate(corpus.Twitter(c.rows+queries/2, cfg.Params.Dim, 1))
			docs := make([]sparse.Vector, c.rows)
			for i := range docs {
				docs[i] = col.Mat.Row(i)
			}
			n, err := Open(bg, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := n.Insert(bg, docs); err != nil {
				t.Fatal(err)
			}
			mustMerge(t, n)
			column := int64(c.rows * cfg.Params.SketchWords() * 8)
			perRow := float64(n.Stats().MemoryBytes-column) / float64(c.rows)
			t.Logf("%d rows: %.1f B a row beside the sign-bit column", c.rows, perRow)
			if perRow > c.limit {
				t.Errorf("%d rows: %.1f B a row, want at most %v", c.rows, perRow, c.limit)
			}

			p := cfg.Params
			sketches := make([][]uint32, c.rows)
			for i, d := range docs {
				sketches[i] = n.fam.Sketch(d)
			}
			thr := sparse.CosThreshold(cfg.Query.Radius)
			bound := lshhash.HammingBound(p.K, p.M, cfg.Query.Radius)
			for i := 0; i < queries; i++ {
				q := col.Mat.Row(c.rows - queries/2 + i)
				qs := n.fam.Sketch(q)
				var want []core.Neighbor
				for id, s := range sketches {
					// Two rows share the key of table (a, b) when they agree
					// on both half-hashes: some table, when on two of the m.
					agree, ham := 0, 0
					for j := 0; j < p.M; j++ {
						if s[j] == qs[j] {
							agree++
						}
						ham += bits.OnesCount32(s[j] ^ qs[j])
					}
					if dot := sparse.Dot(q, docs[id]); agree >= 2 && ham <= bound && dot >= thr {
						want = append(want, core.Neighbor{ID: uint32(id), Dist: sparse.AngularDistance(dot)})
					}
				}
				core.SortNeighbors(want)
				sameNeighbors(t, fmt.Sprintf("%d rows, query %d", c.rows, i), want, mustQuery(t, n, q))
			}
		})
	}
}
