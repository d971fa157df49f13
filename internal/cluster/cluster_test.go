package cluster

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"
	"time"

	"plsh/internal/core"
	"plsh/internal/corpus"
	"plsh/internal/lshhash"
	"plsh/internal/node"
	"plsh/internal/sparse"
	"plsh/internal/transport"
)

var bg = context.Background()

// realNode builds a real in-process node, so the fault tests race real
// answers rather than a fake's empty ones.
func realNode(t *testing.T, capacity int) *node.Node {
	t.Helper()
	n, err := node.Open(bg, node.Config{
		Params:   lshhash.Params{Dim: 2000, K: 8, M: 6, Seed: 42},
		Capacity: capacity,
		Build:    core.Defaults(),
		Query:    core.QueryDefaults(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func testNodes(t *testing.T, count, capacity int) []transport.NodeClient {
	t.Helper()
	out := make([]transport.NodeClient, count)
	for i := range out {
		out[i] = transport.NewLocal(realNode(t, capacity))
	}
	return out
}

func testDocs(n int, seed uint64) []sparse.Vector {
	c := corpus.Generate(corpus.Twitter(n, 2000, seed))
	out := make([]sparse.Vector, n)
	for i := 0; i < n; i++ {
		out[i] = c.Mat.Row(i)
	}
	return out
}

func findGlobal(ns []Neighbor, g uint64) bool {
	for _, nb := range ns {
		if nb.ID == g {
			return true
		}
	}
	return false
}

// searchOne answers one query all-or-nothing.
func searchOne(t *testing.T, c *Cluster, q sparse.Vector, p node.SearchParams) []Neighbor {
	t.Helper()
	res, _, err := c.Search(bg, []sparse.Vector{q}, p, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return res[0]
}

// fakeNode is a controllable NodeClient for failure-policy tests. Its
// query path blocks for `delay` (honoring ctx) and then returns `err` or
// an empty answer.
type fakeNode struct {
	capacity int
	rows     int // what Stats reports the node holds
	delay    time.Duration
	err      error
}

func (f *fakeNode) wait(ctx context.Context) error {
	if f.delay > 0 {
		select {
		case <-time.After(f.delay):
		case <-ctx.Done():
			return ctx.Err()
		}
	} else if err := ctx.Err(); err != nil {
		return err
	}
	return f.err
}

func (f *fakeNode) Insert(ctx context.Context, vs []sparse.Vector) ([]uint32, error) {
	if err := f.wait(ctx); err != nil {
		return nil, err
	}
	return make([]uint32, len(vs)), nil
}

func (f *fakeNode) Search(ctx context.Context, qs []sparse.Vector, p node.SearchParams) ([][]core.Neighbor, error) {
	if err := f.wait(ctx); err != nil {
		return nil, err
	}
	return make([][]core.Neighbor, len(qs)), nil
}

func (f *fakeNode) Doc(ctx context.Context, id uint32) (sparse.Vector, bool, error) {
	if err := f.wait(ctx); err != nil {
		return sparse.Vector{}, false, err
	}
	return sparse.Vector{}, false, nil
}

func (f *fakeNode) Delete(ctx context.Context, id uint32) error { return f.wait(ctx) }
func (f *fakeNode) MergeNow(ctx context.Context) error          { return f.wait(ctx) }
func (f *fakeNode) Flush(ctx context.Context) error             { return f.wait(ctx) }
func (f *fakeNode) Retire(ctx context.Context) error            { return f.wait(ctx) }
func (f *fakeNode) Save(ctx context.Context) error              { return f.wait(ctx) }
func (f *fakeNode) Stats(ctx context.Context) (node.Stats, error) {
	return node.Stats{Capacity: f.capacity, StaticLen: f.rows}, nil
}
func (f *fakeNode) Close() error { return nil }

func TestGlobalIDRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		node  int
		local uint32
	}{{0, 0}, {1, 7}, {99, 1 << 30}, {65535, ^uint32(0)}} {
		g := GlobalID(tc.node, tc.local)
		n, l := SplitGlobalID(g)
		if n != tc.node || l != tc.local {
			t.Fatalf("round trip (%d,%d) → %d → (%d,%d)", tc.node, tc.local, g, n, l)
		}
	}
}

func TestInsertDistributesOverWindow(t *testing.T) {
	nodes := testNodes(t, 6, 1000)
	c, err := NewWithOptions(bg, nodes, Options{WindowM: 3})
	if err != nil {
		t.Fatal(err)
	}
	vs := testDocs(300, 1)
	ids, err := c.Insert(bg, vs)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 300 {
		t.Fatalf("ids = %d", len(ids))
	}
	// All inserts must land on window nodes 0..2, roughly evenly.
	stats, _ := c.Stats(bg)
	for i := 0; i < 3; i++ {
		n := stats[i].StaticLen + stats[i].DeltaLen
		if n < 80 || n > 120 {
			t.Fatalf("node %d holds %d docs, want ≈100", i, n)
		}
	}
	for i := 3; i < 6; i++ {
		if stats[i].StaticLen+stats[i].DeltaLen != 0 {
			t.Fatalf("node %d outside window received inserts", i)
		}
	}
}

// TestInsertResyncsDriftedGroup: when a group the coordinator counts as
// having room refuses a batch with ErrFull, Insert resyncs the group's
// count from its Stats and places the whole batch on the group that has
// room.
func TestInsertResyncsDriftedGroup(t *testing.T) {
	full, spare := &fakeNode{capacity: 100}, &fakeNode{capacity: 100}
	c, err := NewWithOptions(bg, []transport.NodeClient{full, spare}, Options{WindowM: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Group 0 fills behind the coordinator's back.
	full.err, full.rows = node.ErrFull, full.capacity
	ids, err := c.Insert(bg, testDocs(10, 3))
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if g, _ := SplitGlobalID(id); g != 1 {
			t.Fatalf("doc %d placed on group %d, want 1", i, g)
		}
	}
	if c.used[0] != full.capacity {
		t.Fatalf("group 0 counted as holding %d rows after the resync, want %d", c.used[0], full.capacity)
	}
}

// refusingNode reports room in its Stats but refuses every insert as
// full, counting the attempts. With rows raised to capacity after the
// coordinator is built, it is a group that filled behind its back.
type refusingNode struct {
	fakeNode
	inserts int
}

func (f *refusingNode) Insert(ctx context.Context, vs []sparse.Vector) ([]uint32, error) {
	f.inserts++
	return nil, node.ErrFull
}

// checkRefusedInsert asserts the contract of an insert that group g
// refused as full: an *InsertError wrapping node.ErrFull that names g,
// whose Placed/IDs are exact — every placed ID fetches its own document,
// and the placed count is what the other groups' members report holding.
// Every group must have one member.
func checkRefusedInsert(t *testing.T, c *Cluster, vs []sparse.Vector, err error, g int) {
	t.Helper()
	var ie *InsertError
	if !errors.As(err, &ie) || !errors.Is(err, node.ErrFull) {
		t.Fatalf("want an *InsertError wrapping ErrFull, got %T: %v", err, err)
	}
	if want := fmt.Sprintf("group %d ", g); !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name group %d", err, g)
	}
	placed := 0
	for i, ok := range ie.Placed {
		if !ok {
			continue
		}
		placed++
		if gg, _ := SplitGlobalID(ie.IDs[i]); gg == g {
			t.Fatalf("doc %d reported placed on the refusing group %d", i, g)
		}
		v, known, err := c.Doc(bg, ie.IDs[i])
		if err != nil || !known || !slices.Equal(v.Idx, vs[i].Idx) || !slices.Equal(v.Val, vs[i].Val) {
			t.Fatalf("doc %d: its reported ID %d holds another document (known %v, err %v)", i, ie.IDs[i], known, err)
		}
	}
	stats, err := c.Stats(bg)
	if err != nil {
		t.Fatal(err)
	}
	held := 0
	for gg, st := range stats { // one member per group
		if gg != g {
			held += st.StaticLen + st.DeltaLen
		}
	}
	if placed != held {
		t.Errorf("%d documents reported placed, the other groups hold %d", placed, held)
	}
}

// TestInsertFailsOnRefusingGroup: a group whose Stats show room but that
// keeps refusing as full fails the insert after one round that places
// nothing — on scatter, once the other window group has taken every share
// it was given; on partitioned, in the round after the refusal — instead
// of looping.
func TestInsertFailsOnRefusingGroup(t *testing.T) {
	t.Run("scatter", func(t *testing.T) {
		liar := &refusingNode{fakeNode: fakeNode{capacity: 100}}
		c, err := NewWithOptions(bg, []transport.NodeClient{liar, transport.NewLocal(realNode(t, 100))}, Options{WindowM: 2})
		if err != nil {
			t.Fatal(err)
		}
		vs := testDocs(10, 61)
		_, err = c.Insert(bg, vs)
		checkRefusedInsert(t, c, vs, err, 0)
		// Each round halves what group 0 is offered; the last offers it
		// one document and nothing else.
		if liar.inserts != 5 {
			t.Errorf("the refusing group was tried %d times, want 5", liar.inserts)
		}
	})
	t.Run("partitioned", func(t *testing.T) {
		r := testRouter(t, RouterConfig{Groups: 4})
		vs := testDocs(40, 61)
		g := r.GroupFor(vs[0])
		liar := &refusingNode{fakeNode: fakeNode{capacity: 100}}
		nodes := testNodes(t, 4, 100)
		nodes[g] = liar
		c, err := NewWithOptions(bg, nodes, Options{Placement: PlacementPartitioned, Router: r})
		if err != nil {
			t.Fatal(err)
		}
		_, err = c.Insert(bg, vs)
		checkRefusedInsert(t, c, vs, err, g)
		if liar.inserts != 2 {
			t.Errorf("the refusing group was tried %d times, want 2", liar.inserts)
		}
	})
}

// TestPartitionedInsertResyncsFilledGroup: a routed group that filled
// behind the coordinator's back refuses its part; Insert resyncs the
// group's count from its Stats, and the next round fails before writing
// to it again — no document spills to another group.
func TestPartitionedInsertResyncsFilledGroup(t *testing.T) {
	r := testRouter(t, RouterConfig{Groups: 4})
	vs := testDocs(40, 67)
	g := r.GroupFor(vs[0])
	filled := &refusingNode{fakeNode: fakeNode{capacity: 100}}
	nodes := testNodes(t, 4, 100)
	nodes[g] = filled
	c, err := NewWithOptions(bg, nodes, Options{Placement: PlacementPartitioned, Router: r})
	if err != nil {
		t.Fatal(err)
	}
	filled.rows = filled.capacity
	_, err = c.Insert(bg, vs)
	checkRefusedInsert(t, c, vs, err, g)
	if c.used[g] != filled.capacity {
		t.Errorf("group %d counted as holding %d rows after the resync, want %d", g, c.used[g], filled.capacity)
	}
	if filled.inserts != 1 {
		t.Errorf("the filled group was written %d times, want 1", filled.inserts)
	}
}

// TestPartitionedInsertSkipsUnroutedOvercountedGroup: a group counted as
// holding more than its capacity — drifted mirrors of unequal capacity
// count as the smallest capacity and the largest row count — refuses only
// documents routed to it; a batch that routes nothing there inserts.
func TestPartitionedInsertSkipsUnroutedOvercountedGroup(t *testing.T) {
	r := testRouter(t, RouterConfig{Groups: 4})
	vs := testDocs(80, 71)
	g := r.GroupFor(vs[0])
	nodes := testNodes(t, 8, 100)
	nodes[2*g] = &fakeNode{capacity: 100, rows: 50}
	nodes[2*g+1] = &fakeNode{capacity: 20, rows: 10}
	c, err := NewWithOptions(bg, nodes, Options{Replicas: 2, Placement: PlacementPartitioned, Router: r})
	if err != nil {
		t.Fatal(err)
	}
	if c.used[g] <= c.caps[g] {
		t.Fatalf("group %d counted as %d/%d, want more rows than capacity", g, c.used[g], c.caps[g])
	}
	var batch []sparse.Vector
	for _, v := range vs {
		if r.GroupFor(v) != g {
			batch = append(batch, v)
		}
	}
	ids, err := c.Insert(bg, batch)
	if err != nil {
		t.Fatalf("a batch routing nothing to group %d: %v", g, err)
	}
	for i, id := range ids {
		if gg, _ := SplitGlobalID(id); gg != r.GroupFor(batch[i]) {
			t.Fatalf("doc %d placed on group %d, routed to %d", i, gg, r.GroupFor(batch[i]))
		}
	}
	_, err = c.Insert(bg, vs[:1])
	var ie *InsertError
	if !errors.As(err, &ie) || !errors.Is(err, node.ErrFull) {
		t.Fatalf("a document routed to group %d: want an *InsertError wrapping ErrFull, got %v", g, err)
	}
}

// Cluster queries must equal a single node holding the whole corpus.
func TestClusterEquivalentToSingleNode(t *testing.T) {
	vs := testDocs(400, 3)
	queries := testDocs(25, 9)

	single := testNodes(t, 1, 1000)[0]
	if _, err := single.Insert(bg, vs); err != nil {
		t.Fatal(err)
	}

	nodes := testNodes(t, 4, 200)
	c, err := NewWithOptions(bg, nodes, Options{WindowM: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert(bg, vs); err != nil {
		t.Fatal(err)
	}

	singleRes, _ := single.Search(bg, queries, node.SearchParams{})
	clusterRes, _, err := c.Search(bg, queries, node.SearchParams{}, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for qi := range queries {
		if len(singleRes[qi]) != len(clusterRes[qi]) {
			t.Fatalf("query %d: single %d vs cluster %d results",
				qi, len(singleRes[qi]), len(clusterRes[qi]))
		}
	}
}

func TestEveryInsertedDocFindable(t *testing.T) {
	nodes := testNodes(t, 4, 150)
	c, _ := NewWithOptions(bg, nodes, Options{WindowM: 2})
	vs := testDocs(300, 5)
	ids, err := c.Insert(bg, vs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(vs); i += 23 {
		res := searchOne(t, c, vs[i], node.SearchParams{})
		if !findGlobal(res, ids[i]) {
			t.Fatalf("doc %d (gid %d) not found", i, ids[i])
		}
	}
}

func TestWindowAdvancesAndRetires(t *testing.T) {
	// 4 nodes × 100 capacity, window 2: inserting 350 docs fills nodes
	// 0-1 (200), advances to 2-3 (150). Inserting 250 more fills 2-3 and
	// wraps: nodes 0-1 retire and receive the rest.
	nodes := testNodes(t, 4, 100)
	c, _ := NewWithOptions(bg, nodes, Options{WindowM: 2})
	vs := testDocs(600, 7)
	if _, err := c.Insert(bg, vs[:350]); err != nil {
		t.Fatal(err)
	}
	if c.start != 2 {
		t.Fatalf("window start = %d, want 2", c.start)
	}
	firstBatchRes := searchOne(t, c, vs[0], node.SearchParams{})
	if len(firstBatchRes) == 0 {
		t.Fatal("doc 0 missing before wrap")
	}

	if _, err := c.Insert(bg, vs[350:]); err != nil {
		t.Fatal(err)
	}
	if c.start != 0 {
		t.Fatalf("window start after wrap = %d, want 0", c.start)
	}
	stats, _ := c.Stats(bg)
	total := 0
	for _, st := range stats {
		total += st.StaticLen + st.DeltaLen
	}
	// 0-1 retired (lost 200 oldest), then received the last 250.
	if total != 400 {
		t.Fatalf("cluster holds %d docs, want 400 after retirement", total)
	}
}

func TestOldestDataExpires(t *testing.T) {
	nodes := testNodes(t, 4, 100)
	c, _ := NewWithOptions(bg, nodes, Options{WindowM: 2})
	vs := testDocs(600, 11)
	ids, err := c.Insert(bg, vs)
	if err != nil {
		t.Fatal(err)
	}
	// The first 200 docs lived on nodes 0-1, which were retired during the
	// wrap; they must no longer be findable at their original identity.
	res := searchOne(t, c, vs[0], node.SearchParams{})
	if findGlobal(res, ids[0]) {
		t.Fatal("expired doc still answers at its original global ID")
	}
	// The last docs must be findable.
	last := len(vs) - 1
	res = searchOne(t, c, vs[last], node.SearchParams{})
	if !findGlobal(res, ids[last]) {
		t.Fatal("most recent doc not found")
	}
}

func TestDeleteByGlobalID(t *testing.T) {
	nodes := testNodes(t, 3, 200)
	c, _ := NewWithOptions(bg, nodes, Options{WindowM: 3})
	vs := testDocs(150, 13)
	ids, _ := c.Insert(bg, vs)
	if err := c.Delete(bg, ids[42]); err != nil {
		t.Fatal(err)
	}
	res := searchOne(t, c, vs[42], node.SearchParams{})
	if findGlobal(res, ids[42]) {
		t.Fatal("deleted doc returned")
	}
	if err := c.Delete(bg, GlobalID(99, 0)); err == nil {
		t.Fatal("delete on unknown node accepted")
	}
}

func TestQueryBatchTimedReportsAllNodes(t *testing.T) {
	nodes := testNodes(t, 5, 200)
	c, _ := NewWithOptions(bg, nodes, Options{WindowM: 5})
	vs := testDocs(250, 15)
	c.Insert(bg, vs)
	_, report, err := c.Search(bg, vs[:10], node.SearchParams{}, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Times) != 5 {
		t.Fatalf("times for %d nodes", len(report.Times))
	}
	for i, d := range report.Times {
		if d <= 0 {
			t.Fatalf("node %d reported no time", i)
		}
	}
	if !report.Complete() || len(report.Stragglers()) != 0 {
		t.Fatalf("healthy broadcast reported incomplete: %+v", report)
	}
}

// A canceled context must abort a broadcast early with ctx.Err() instead
// of waiting out the slowest node.
func TestCanceledContextAbortsBroadcast(t *testing.T) {
	nodes := []transport.NodeClient{
		&fakeNode{capacity: 100},
		&fakeNode{capacity: 100, delay: time.Hour}, // would stall forever
	}
	c, err := NewWithOptions(bg, nodes, Options{WindowM: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(bg)
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	t0 := time.Now()
	_, _, err = c.Search(ctx, testDocs(3, 17), node.SearchParams{}, BatchOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if elapsed := time.Since(t0); elapsed > 10*time.Second {
		t.Fatalf("broadcast waited on slow node for %v despite cancellation", elapsed)
	}
}

// A context deadline likewise aborts the broadcast with DeadlineExceeded.
func TestDeadlineAbortsBroadcast(t *testing.T) {
	nodes := []transport.NodeClient{
		&fakeNode{capacity: 100, delay: time.Hour},
	}
	c, err := NewWithOptions(bg, nodes, Options{WindowM: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(bg, 30*time.Millisecond)
	defer cancel()
	if _, _, err := c.Search(ctx, testDocs(3, 17), node.SearchParams{}, BatchOptions{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
}

// A K-bounded Search must agree with sorting the full broadcast answer and
// keeping the k best.
func TestQueryTopKMatchesBroadcast(t *testing.T) {
	nodes := testNodes(t, 4, 200)
	c, _ := NewWithOptions(bg, nodes, Options{WindowM: 2})
	vs := testDocs(400, 23)
	if _, err := c.Insert(bg, vs); err != nil {
		t.Fatal(err)
	}
	queries := testDocs(15, 25)
	for _, k := range []int{1, 5, 20} {
		for qi, q := range queries {
			full := searchOne(t, c, q, node.SearchParams{})
			want := append([]Neighbor(nil), full...)
			sortClusterNeighbors(want)
			if k < len(want) {
				want = want[:k]
			}
			got := searchOne(t, c, q, node.SearchParams{K: k})
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
}

// tiedNode answers every query with one fixed list in the node contract's
// (distance, id) order, cut at p.K like a real node's.
type tiedNode struct {
	fakeNode
	answer []core.Neighbor
}

func (f *tiedNode) Search(ctx context.Context, qs []sparse.Vector, p node.SearchParams) ([][]core.Neighbor, error) {
	out := make([][]core.Neighbor, len(qs))
	for i := range out {
		out[i] = slices.Clone(f.answer)
		if p.K > 0 && len(out[i]) > p.K {
			out[i] = out[i][:p.K]
		}
	}
	return out, nil
}

// TestSearchBreaksTiesByGroup: groups that answer at equal distances come
// out in (distance, global ID) order, the group being the ID's high half —
// group 2's local ids are lower than group 0's, so an order by local id
// alone would differ — and a p.K that cuts inside the tie keeps the lower
// groups.
func TestSearchBreaksTiesByGroup(t *testing.T) {
	answers := [][]core.Neighbor{
		{{ID: 5, Dist: 0.5}, {ID: 9, Dist: 0.5}, {ID: 1, Dist: 0.75}},
		{{ID: 2, Dist: 0.25}, {ID: 3, Dist: 0.5}},
		{{ID: 0, Dist: 0.5}, {ID: 4, Dist: 0.5}},
	}
	nodes := make([]transport.NodeClient, len(answers))
	for g, a := range answers {
		nodes[g] = &tiedNode{fakeNode: fakeNode{capacity: 10}, answer: a}
	}
	c, err := NewWithOptions(bg, nodes, Options{WindowM: len(nodes)})
	if err != nil {
		t.Fatal(err)
	}
	all := []Neighbor{
		{ID: GlobalID(1, 2), Dist: 0.25},
		{ID: GlobalID(0, 5), Dist: 0.5}, {ID: GlobalID(0, 9), Dist: 0.5},
		{ID: GlobalID(1, 3), Dist: 0.5},
		{ID: GlobalID(2, 0), Dist: 0.5}, {ID: GlobalID(2, 4), Dist: 0.5},
		{ID: GlobalID(0, 1), Dist: 0.75},
	}
	qs := testDocs(2, 41)
	for _, k := range []int{0, 1, 2, 3, 4, 5, 7, 10} {
		want := all
		if k > 0 && k < len(want) {
			want = want[:k]
		}
		res, _, err := c.Search(bg, qs, node.SearchParams{K: k}, BatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for qi, got := range res {
			if !slices.Equal(got, want) {
				t.Fatalf("k=%d query %d: %+v, want %+v", k, qi, got, want)
			}
		}
	}
}

// sortClusterNeighbors mirrors the coordinator's merge order: ascending
// (Dist, ID).
func sortClusterNeighbors(ns []Neighbor) {
	for i := 1; i < len(ns); i++ {
		for j := i; j > 0 && clusterLess(ns[j], ns[j-1]); j-- {
			ns[j], ns[j-1] = ns[j-1], ns[j]
		}
	}
}

func clusterLess(a, b Neighbor) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	return a.ID < b.ID
}

func TestMergeAll(t *testing.T) {
	nodes := testNodes(t, 3, 500)
	c, _ := NewWithOptions(bg, nodes, Options{WindowM: 3})
	vs := testDocs(90, 17)
	c.Insert(bg, vs)
	if err := c.MergeAll(bg); err != nil {
		t.Fatal(err)
	}
	stats, _ := c.Stats(bg)
	for i, st := range stats {
		if st.DeltaLen != 0 {
			t.Fatalf("node %d delta not merged: %+v", i, st)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := NewWithOptions(bg, nil, Options{WindowM: 2}); err == nil {
		t.Fatal("empty cluster accepted")
	}
	// Window clamped when out of range.
	nodes := testNodes(t, 2, 100)
	c, err := NewWithOptions(bg, nodes, Options{WindowM: 99})
	if err != nil {
		t.Fatal(err)
	}
	if c.m != 2 {
		t.Fatalf("window not clamped: %d", c.m)
	}
}

func TestInsertLargerThanClusterWraps(t *testing.T) {
	// Total capacity 200; inserting 250 must succeed by expiring the
	// oldest — the cluster is a sliding window over the stream.
	nodes := testNodes(t, 2, 100)
	c, _ := NewWithOptions(bg, nodes, Options{WindowM: 1})
	vs := testDocs(250, 19)
	ids, err := c.Insert(bg, vs)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 250 {
		t.Fatalf("ids = %d", len(ids))
	}
	res := searchOne(t, c, vs[249], node.SearchParams{})
	if !findGlobal(res, ids[249]) {
		t.Fatal("newest doc missing after wrap")
	}
}

func TestEmptyInsert(t *testing.T) {
	nodes := testNodes(t, 2, 100)
	c, _ := NewWithOptions(bg, nodes, Options{WindowM: 1})
	ids, err := c.Insert(bg, nil)
	if err != nil || ids != nil {
		t.Fatalf("empty insert: %v %v", ids, err)
	}
}

func TestCanceledInsertRejected(t *testing.T) {
	nodes := testNodes(t, 2, 100)
	c, _ := NewWithOptions(bg, nodes, Options{WindowM: 1})
	ctx, cancel := context.WithCancel(bg)
	cancel()
	if _, err := c.Insert(ctx, testDocs(10, 27)); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled insert: %v", err)
	}
}

// MergeAll drives every node static while broadcasts keep answering;
// FlushAll is the no-force barrier and reports clean merge state after.
func TestMergeAllNonBlockingAndFlushAll(t *testing.T) {
	c, err := NewWithOptions(bg, testNodes(t, 3, 1000), Options{WindowM: 3})
	if err != nil {
		t.Fatal(err)
	}
	docs := testDocs(600, 29)
	ids, err := c.Insert(bg, docs)
	if err != nil {
		t.Fatal(err)
	}
	mergeErr := make(chan error, 1)
	go func() { mergeErr <- c.MergeAll(bg) }()
	// Broadcasts issued while the cluster-wide merge runs must answer from
	// the nodes' snapshots, not buffer behind the rebuilds.
	for i := 0; i < len(docs); i += 67 {
		res := searchOne(t, c, docs[i], node.SearchParams{})
		if !findGlobal(res, ids[i]) {
			t.Fatalf("doc %d missing during MergeAll", i)
		}
	}
	if err := <-mergeErr; err != nil {
		t.Fatal(err)
	}
	if err := c.FlushAll(bg); err != nil {
		t.Fatal(err)
	}
	stats, err := c.Stats(bg)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range stats {
		if st.DeltaLen != 0 || st.MergeInFlight {
			t.Fatalf("node %d not quiesced after MergeAll+FlushAll: %+v", i, st)
		}
	}
}

// parkingNode is a fakeNode whose Insert closes entered, then parks until
// its ctx ends.
type parkingNode struct {
	fakeNode
	entered chan struct{}
}

func (p *parkingNode) Insert(ctx context.Context, vs []sparse.Vector) ([]uint32, error) {
	close(p.entered)
	<-ctx.Done()
	return nil, ctx.Err()
}

// DESIGN's audit row l4: Insert holds the coordinator's mutex for its whole
// run, member RPCs included, and nothing else takes it. So while an Insert
// is parked inside a member, Search, Doc, Delete and Stats still answer.
// A read that took the mutex would wait out the parked Insert; it fails
// here after a few seconds instead.
func TestReadsAnswerDuringParkedInsert(t *testing.T) {
	member := &parkingNode{fakeNode: fakeNode{capacity: 100}, entered: make(chan struct{})}
	c, err := NewWithOptions(bg, []transport.NodeClient{member}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ictx, unpark := context.WithCancel(bg)
	defer unpark()
	inserted := make(chan error, 1)
	go func() {
		_, err := c.Insert(ictx, testDocs(2, 41))
		inserted <- err
	}()
	select {
	case <-member.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("Insert never reached the member")
	}

	q := testDocs(1, 43)
	ops := map[string]func() error{
		"Search": func() error {
			_, _, err := c.Search(bg, q, node.SearchParams{}, BatchOptions{})
			return err
		},
		"Doc": func() error {
			_, _, err := c.Doc(bg, GlobalID(0, 0))
			return err
		},
		"Delete": func() error { return c.Delete(bg, GlobalID(0, 0)) },
		"Stats": func() error {
			_, err := c.Stats(bg)
			return err
		},
	}
	type result struct {
		name string
		err  error
	}
	done := make(chan result, len(ops))
	for name, op := range ops {
		go func() { done <- result{name, op()} }()
	}
	timeout := time.After(5 * time.Second)
	for range len(ops) {
		select {
		case r := <-done:
			delete(ops, r.name)
			if r.err != nil {
				t.Errorf("%s during a parked Insert: %v", r.name, r.err)
			}
		case <-timeout:
			t.Fatalf("%v blocked behind an Insert parked inside a member", slices.Sorted(maps.Keys(ops)))
		}
	}
	unpark()
	if err := <-inserted; !errors.Is(err, context.Canceled) {
		t.Fatalf("unparked Insert returned %v, want context.Canceled", err)
	}
}
