package node

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"plsh/internal/bitvec"
	"plsh/internal/core"
	"plsh/internal/oracle"
	"plsh/internal/sparse"
)

// holdMerge installs a test hook that blocks n's background merge — or,
// given &testHookCheckpoint, any checkpoint — at the given phase until the
// returned release func is called. entered is closed once the phase is
// first reached; later arrivals after the release pass straight through.
// Cleanup releases the hold, drains the node, and only then clears the
// hook — the hooks are plain globals, so no merge goroutine may be left
// running when they are written. A failed test is not drained: its failure
// may be a lock held across the very merge the drain would wait for, so the
// released hook stays in place rather than hang the package.
func holdMerge(t *testing.T, n *Node, phase *func()) (entered chan struct{}, release func()) {
	t.Helper()
	entered = make(chan struct{})
	releaseCh := make(chan struct{})
	var enter sync.Once
	*phase = func() {
		enter.Do(func() { close(entered) })
		<-releaseCh
	}
	var once sync.Once
	release = func() { once.Do(func() { close(releaseCh) }) }
	t.Cleanup(func() {
		release()
		if t.Failed() {
			return
		}
		if err := n.Flush(bg); err != nil {
			t.Error(err)
		}
		*phase = nil
	})
	return entered, release
}

// The acceptance property of the snapshot refactor: with a merge provably
// in flight (held open by a test hook), queries, inserts, and deletes all
// complete and stay correct instead of buffering behind the rebuild.
func TestQueriesCompleteDuringMerge(t *testing.T) {
	cfg := testConfig(2000)
	cfg.AutoMerge = false
	n, err := Open(bg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	vs := testDocs(600, 31)
	if _, err := n.Insert(bg, vs[:300]); err != nil {
		t.Fatal(err)
	}
	mustMerge(t, n)
	if _, err := n.Insert(bg, vs[300:500]); err != nil {
		t.Fatal(err)
	}

	entered, release := holdMerge(t, n, &testHookMergeStart)
	defer release()
	mergeErr := make(chan error, 1)
	go func() { mergeErr <- n.MergeNow(bg) }()
	<-entered

	st := n.Stats()
	if !st.MergeInFlight || st.MergePendingRows != 200 {
		t.Fatalf("merge state not surfaced: %+v", st)
	}
	// Queries over both static and delta rows answer while the rebuild is
	// blocked. Under the old lock-everything model these would hang.
	for i := 0; i < 500; i += 37 {
		if got := neighborIDs(mustQuery(t, n, vs[i])); !got[uint32(i)] {
			t.Fatalf("doc %d unavailable during merge", i)
		}
	}
	// Inserts land in the active delta and are immediately visible.
	if _, err := n.Insert(bg, vs[500:550]); err != nil {
		t.Fatal(err)
	}
	if got := neighborIDs(mustQuery(t, n, vs[520])); !got[520] {
		t.Fatal("doc inserted during merge not found")
	}
	// Deletes take effect immediately, without the write lock.
	n.Delete(10)
	if got := neighborIDs(mustQuery(t, n, vs[10])); got[10] {
		t.Fatal("doc deleted during merge still returned")
	}

	release()
	if err := <-mergeErr; err != nil {
		t.Fatal(err)
	}
	// MergeNow's target was the 500 rows present at the call; the 50 rows
	// inserted mid-merge stay in the delta.
	if n.StaticLen() != 500 || n.DeltaLen() != 50 {
		t.Fatalf("post-merge split: %d/%d", n.StaticLen(), n.DeltaLen())
	}
	for i := 0; i < 550; i += 41 {
		want := i != 10
		if got := neighborIDs(mustQuery(t, n, vs[i])); got[uint32(i)] != want {
			t.Fatalf("doc %d visibility after merge: got %v want %v", i, got[uint32(i)], want)
		}
	}
}

// Tombstones set while a merge is running must stick, whichever side of
// the rebuild they land on: before it → compacted out of the new buckets;
// after it (but before publication) → filtered on every query.
func TestDeleteMidMergeNotResurrected(t *testing.T) {
	cfg := testConfig(2000)
	cfg.AutoMerge = false
	n, err := Open(bg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	vs := testDocs(400, 33)
	if _, err := n.Insert(bg, vs); err != nil {
		t.Fatal(err)
	}

	started, releaseStart := holdMerge(t, n, &testHookMergeStart)
	built, releaseBuilt := holdMerge(t, n, &testHookMergeBuilt)
	defer releaseStart()
	defer releaseBuilt()
	done := make(chan error, 1)
	go func() { done <- n.MergeNow(bg) }()

	<-started
	n.Delete(7) // lands before the rebuild reads tombstones
	releaseStart()
	<-built
	n.Delete(11) // lands after the rebuild, before the snapshot swap
	releaseBuilt()
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	for _, id := range []uint32{7, 11} {
		if got := neighborIDs(mustQuery(t, n, vs[id])); got[id] {
			t.Fatalf("deleted doc %d resurrected by merge", id)
		}
	}
	// White-box: the pre-rebuild tombstone was compacted out of every
	// static bucket, not merely filtered.
	for l := 0; l < n.static.NumTables(); l++ {
		for key := 0; key < n.fam.Params().Buckets(); key++ {
			if slices.Contains(n.static.Table(l).Bucket(nil, uint32(key)), 7) {
				t.Fatal("compaction left tombstoned row in a static bucket")
			}
		}
	}
	if n.Stats().Deleted != 2 {
		t.Fatalf("Deleted = %d", n.Stats().Deleted)
	}
}

// Retire must drain an in-flight merge before erasing state, and the node
// must come back empty and usable.
func TestRetireDrainsInFlightMerge(t *testing.T) {
	cfg := testConfig(2000)
	cfg.AutoMerge = false
	n, err := Open(bg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	vs := testDocs(300, 35)
	if _, err := n.Insert(bg, vs); err != nil {
		t.Fatal(err)
	}

	entered, release := holdMerge(t, n, &testHookMergeStart)
	defer release()
	mergeRet := make(chan error, 1)
	go func() { mergeRet <- n.MergeNow(bg) }()
	<-entered

	retired := make(chan struct{})
	go func() { n.Retire(bg); close(retired) }()
	// The merge is held open, so Retire cannot have finished; it must be
	// parked draining the merge, while queries still answer.
	select {
	case <-retired:
		t.Fatal("Retire completed while a merge was in flight")
	case <-time.After(50 * time.Millisecond):
	}
	if got := neighborIDs(mustQuery(t, n, vs[3])); !got[3] {
		t.Fatal("query failed while Retire drained the merge")
	}
	// A deadline-bound Retire must give up instead of waiting out the held
	// merge, leaving the node unretired. One that ignores its deadline would
	// wait for a release that comes only after it returns, so it is given
	// a few seconds, not the package timeout.
	dctx, cancel := context.WithTimeout(bg, 30*time.Millisecond)
	defer cancel()
	bounded := make(chan error, 1)
	go func() { bounded <- n.Retire(dctx) }()
	select {
	case err := <-bounded:
		if err != context.DeadlineExceeded {
			t.Fatalf("deadline-bound Retire during merge: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Retire ignored its deadline")
	}
	if n.Len() != 300 {
		t.Fatalf("canceled Retire erased state: Len = %d", n.Len())
	}
	release()
	<-retired
	// Join the forced-merge waiter before touching the node further: once
	// Retire erases its target rows it returns promptly (clamped target),
	// but left unjoined it could restart a merge over post-retire inserts
	// and race the test cleanup.
	if err := <-mergeRet; err != nil {
		t.Fatal(err)
	}
	st := n.Stats()
	if st.StaticLen != 0 || st.DeltaLen != 0 || st.Deleted != 0 || st.MergeInFlight {
		t.Fatalf("retire left state: %+v", st)
	}
	if _, err := n.Insert(bg, vs[:50]); err != nil {
		t.Fatal(err)
	}
	if got := neighborIDs(mustQuery(t, n, vs[20])); !got[20] {
		t.Fatal("node unusable after draining retire")
	}
}

// Retire concurrent with a storm of snapshot queries: in-flight queries
// keep reading the retired (immutable) structures, nothing races, and the
// node is empty afterwards.
func TestRetireRacesInFlightQueries(t *testing.T) {
	cfg := testConfig(3000) // η·C = 300: inserts below also trigger merges
	n, err := Open(bg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	vs := testDocs(900, 37)
	queries := testDocs(16, 39)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := n.SearchAppend(bg, nil, queries[(g+i)%len(queries)], SearchParams{}); err != nil {
					t.Errorf("query: %v", err)
					return
				}
			}
		}(g)
	}
	for round := 0; round < 3; round++ {
		if _, err := n.Insert(bg, vs); err != nil {
			t.Fatalf("round %d insert: %v", round, err)
		}
		n.Retire(bg)
	}
	close(stop)
	wg.Wait()
	if n.Len() != 0 {
		t.Fatalf("Len = %d after final retire", n.Len())
	}
}

// A MergeNow waiter whose target rows get erased by a concurrent Retire
// must still return (its quiescence target clamps to the shrunken row
// count) rather than spinning on a stale merge generation.
func TestMergeNowReturnsDespiteConcurrentRetire(t *testing.T) {
	cfg := testConfig(2000)
	cfg.AutoMerge = false
	n, err := Open(bg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	vs := testDocs(200, 47)
	for round := 0; round < 10; round++ {
		if _, err := n.Insert(bg, vs); err != nil {
			t.Fatalf("round %d insert: %v", round, err)
		}
		mergeRet := make(chan error, 1)
		go func() { mergeRet <- n.MergeNow(bg) }()
		n.Retire(bg)
		select {
		case err := <-mergeRet:
			if err != nil {
				t.Fatalf("round %d merge: %v", round, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: MergeNow hung after concurrent Retire", round)
		}
		if n.Len() != 0 {
			// MergeNow may finish before or after the retire erases the
			// rows; either way the node must settle empty here.
			t.Fatalf("round %d: Len = %d after retire", round, n.Len())
		}
	}
}

// Single-document inserts must not degrade queries to a per-batch segment
// walk: trailing segments coalesce so the chain stays logarithmic, and the
// segments tile the delta rows exactly.
func TestSegmentCoalescing(t *testing.T) {
	cfg := testConfig(5000)
	cfg.AutoMerge = false
	n, err := Open(bg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	vs := testDocs(256, 41)
	for i := range vs {
		if _, err := n.Insert(bg, vs[i:i+1]); err != nil {
			t.Fatal(err)
		}
	}
	s := n.snap.Load()
	if len(s.segs) > 10 {
		t.Fatalf("%d segments after 256 single-doc inserts; coalescing not logarithmic", len(s.segs))
	}
	next := s.nStatic
	for _, sg := range s.segs {
		if sg.base != next {
			t.Fatalf("segment base %d, want %d (segments must tile the delta)", sg.base, next)
		}
		if !sg.t.IsFrozen() {
			t.Fatal("published segment not frozen")
		}
		next += sg.t.Len()
	}
	if next != s.rows {
		t.Fatalf("segments cover up to row %d, want %d", next, s.rows)
	}
	for i := 0; i < len(vs); i += 17 {
		if got := neighborIDs(mustQuery(t, n, vs[i])); !got[uint32(i)] {
			t.Fatalf("doc %d lost in coalescing", i)
		}
	}
}

// requireMatchesOracle holds n's answers to every fifth row of vs to o, at
// the configured radius, a wider request radius and a cut at k, and returns
// how many answers were not the query row itself.
func requireMatchesOracle(t *testing.T, phase string, n *Node, o *oracle.Oracle, vs []sparse.Vector) int {
	t.Helper()
	nonSelf := 0
	for _, p := range []SearchParams{{}, {Radius: 1.2}, {K: 3}} {
		radius := n.cfg.Query.Radius
		if p.Radius > 0 {
			radius = p.Radius
		}
		for qi := 0; qi < len(vs); qi += 5 {
			got, err := n.SearchAppend(bg, nil, vs[qi], p)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := o.Answers(vs[qi], radius, p.K)
			if !slices.EqualFunc(got, want, func(a core.Neighbor, b oracle.Neighbor) bool { return a == core.Neighbor(b) }) {
				t.Fatalf("%s, params %+v, query %d:\n got %v\nwant %v", phase, p, qi, got, want)
			}
			for _, nb := range got {
				if nb.ID != uint32(qi) {
					nonSelf++
				}
			}
		}
	}
	return nonSelf
}

// TestSegmentChainMatchesOracle is the node's oracle test. A durable node
// holds a static index and a live chain — coalesced segments of several
// sizes, tombstones older and newer than the merges and coalescings that
// compact them — and answers exactly what the sketches fix: after the
// chain, after MergeNow folds it, after Retire and a new chain, and after
// Close and Open recover that chain from the journal.
func TestSegmentChainMatchesOracle(t *testing.T) {
	cfg := durableConfig(t.TempDir(), 5000)
	cfg.AutoMerge = false
	n, err := Open(bg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { n.Close() }()
	vs := testDocs(1200, 47)
	o := oracle.New(n.fam)
	del := func(id uint32) {
		t.Helper()
		if err := n.Delete(id); err != nil {
			t.Fatal(err)
		}
		o.Delete(id)
	}
	// chain inserts vs[from:to] in 7-row batches, a binary-counter chain
	// that coalesces as it grows, deleting every row a multiple of 5 as a
	// batch begins there.
	chain := func(from, to int) {
		t.Helper()
		for at := from; at < to; {
			step := min(7, to-at)
			if _, err := n.Insert(bg, vs[at:at+step]); err != nil {
				t.Fatal(err)
			}
			o.Add(vs[at : at+step]...)
			if at%5 == 0 {
				del(uint32(at))
			}
			at += step
		}
	}
	if _, err := n.Insert(bg, vs[:600]); err != nil {
		t.Fatal(err)
	}
	o.Add(vs[:600]...)
	mustMerge(t, n)
	for _, id := range []uint32{3, 64, 599} {
		del(id)
	}
	chain(600, 1100)
	for _, id := range []uint32{601, 777, 1000, 1099} {
		del(id)
	}
	if segs := len(n.snap.Load().segs); segs < 3 {
		t.Fatalf("only %d segments; the test wants a chain", segs)
	}
	nonSelf := requireMatchesOracle(t, "chain", n, o, vs[:1100])

	mustMerge(t, n)
	nonSelf += requireMatchesOracle(t, "merged", n, o, vs[:1100])

	if err := n.Retire(bg); err != nil {
		t.Fatal(err)
	}
	o = oracle.New(n.fam)
	chain(0, 400)
	del(17)
	nonSelf += requireMatchesOracle(t, "retired and refilled", n, o, vs[:400])

	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if n, err = Open(bg, cfg); err != nil {
		t.Fatal(err)
	}
	nonSelf += requireMatchesOracle(t, "reopened", n, o, vs[:400])
	t.Logf("%d answers other than the query", nonSelf)
	if nonSelf < 25 {
		t.Fatalf("%d answers other than the query; the test wants at least 25", nonSelf)
	}
}

// A sustained mixed workload — concurrent inserts, queries, deletes,
// forced merges, flushes — exercised for the race detector, with a full
// consistency sweep at the end.
func TestConcurrentMixedWorkload(t *testing.T) {
	cfg := testConfig(4000) // η·C = 400 → background merges fire mid-run
	n, err := Open(bg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	vs := testDocs(2000, 43)
	if _, err := n.Insert(bg, vs[:200]); err != nil {
		t.Fatal(err)
	}
	queries := testDocs(12, 45)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := n.SearchAppend(bg, nil, queries[(g+i)%len(queries)], SearchParams{}); err != nil {
					t.Errorf("query: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() { // deleter: tombstones racing queries and the merge
		defer wg.Done()
		for id := uint32(0); id < 100; id += 5 {
			n.Delete(id)
		}
	}()
	wg.Add(1)
	go func() { // merger/flusher racing the inserter's auto-merges
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if err := n.MergeNow(bg); err != nil {
				t.Errorf("merge: %v", err)
				return
			}
			if err := n.Flush(bg); err != nil {
				t.Errorf("flush: %v", err)
				return
			}
		}
	}()
	for off := 200; off+100 <= 2000; off += 100 {
		if _, err := n.Insert(bg, vs[off:off+100]); err != nil {
			t.Fatalf("insert at %d: %v", off, err)
		}
	}
	close(stop)
	wg.Wait()
	if err := n.Flush(bg); err != nil {
		t.Fatal(err)
	}
	if n.Len() != 2000 {
		t.Fatalf("Len = %d", n.Len())
	}
	for i := 0; i < 2000; i += 101 {
		deleted := i < 100 && i%5 == 0
		if got := neighborIDs(mustQuery(t, n, vs[i])); got[uint32(i)] == deleted {
			t.Fatalf("doc %d: deleted=%v but found=%v", i, deleted, got[uint32(i)])
		}
	}
}

// rebuilt is the index a merge must leave over prefix under the tombstones
// dead: every row hashed and bucketed again by core.Build, then the
// tombstones left out by a core.Merge that adds no rows.
func (n *Node) rebuilt(prefix *sparse.Matrix, dead *bitvec.Vector) *core.Static {
	none := n.cfg.Params.NewSketches(0)
	return core.Merge(core.MustBuild(n.fam, prefix, n.cfg.Build), none, tombstoneWords(dead, prefix.Rows()), n.cfg.Build.Workers)
}

// requireStaticMatchesRebuild checks the node's static index, bucket by
// bucket over every key of every table, against rebuilt over the same rows
// under the tombstones dead.
func requireStaticMatchesRebuild(t *testing.T, what string, n *Node, dead *bitvec.Vector) {
	t.Helper()
	n.mu.Lock()
	st, nStatic := n.static, n.nStatic
	prefix := n.store.Prefix(nStatic)
	n.mu.Unlock()
	if st.Len() != nStatic {
		t.Fatalf("%s: static index covers %d rows, node says %d", what, st.Len(), nStatic)
	}
	if err := core.ValidateTables(n.fam.Params(), nStatic, st.Tables()); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	want := n.rebuilt(prefix, dead)
	for l := 0; l < st.NumTables(); l++ {
		for key := 0; key < n.fam.Params().Buckets(); key++ {
			got, ref := st.Table(l).Bucket(nil, uint32(key)), want.Table(l).Bucket(nil, uint32(key))
			if !slices.Equal(got, ref) {
				t.Fatalf("%s: table %d bucket %d = %v, a rebuild has %v", what, l, key, got, ref)
			}
		}
	}
}

// TestMergeChainMatchesRebuild: merges chained one behind the other — each
// folding a fresh segment chain and fresh tombstones, on both sides of the
// static boundary, into the index the one before it left — end in the index
// a rebuild of the whole prefix produces, after every link.
func TestMergeChainMatchesRebuild(t *testing.T) {
	cfg := testConfig(5000)
	cfg.AutoMerge = false
	n, err := Open(bg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	vs := testDocs(1600, 51)
	at := 0
	for link, rows := range []int{300, 1, 640, 77, 400} {
		for end := at + rows; at < end; { // 9-row batches: a coalesced chain, not one segment
			step := min(9, end-at)
			if _, err := n.Insert(bg, vs[at:at+step]); err != nil {
				t.Fatal(err)
			}
			at += step
		}
		for id := link; id < at; id += 13 {
			if err := n.Delete(uint32(id)); err != nil {
				t.Fatal(err)
			}
		}
		mustMerge(t, n)
		if n.StaticLen() != at || n.DeltaLen() != 0 {
			t.Fatalf("link %d: split %d/%d, want %d/0", link, n.StaticLen(), n.DeltaLen(), at)
		}
		requireStaticMatchesRebuild(t, fmt.Sprintf("link %d", link), n, n.deleted)
	}
	if n.Stats().Merges != 5 {
		t.Fatalf("Merges = %d, want 5", n.Stats().Merges)
	}
}

// TestAutoMergeChainsBehindHeldMerge: inserts that outgrow η·C while a merge
// is held open start the next merge the moment the first installs; the
// second folds into the first's result, not into the index the first
// started from.
func TestAutoMergeChainsBehindHeldMerge(t *testing.T) {
	cfg := testConfig(2000) // η·C = 200
	n, err := Open(bg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	vs := testDocs(700, 53)
	entered, release := holdMerge(t, n, &testHookMergeBuilt)
	defer release()
	if _, err := n.Insert(bg, vs[:250]); err != nil { // starts merge 1, held before it installs
		t.Fatal(err)
	}
	<-entered
	for at := 250; at < 700; at += 50 { // 450 more rows: merge 2 must chain
		if _, err := n.Insert(bg, vs[at:at+50]); err != nil {
			t.Fatal(err)
		}
	}
	release()
	if err := n.Flush(bg); err != nil {
		t.Fatal(err)
	}
	st := n.Stats()
	if st.Merges != 2 || st.StaticLen != 700 || st.DeltaLen != 0 {
		t.Fatalf("after the chain: %+v", st)
	}
	requireStaticMatchesRebuild(t, "chained", n, n.deleted)
}

// TestMergeRacesCoalescerSplice: a merge that starts while the coalescer is
// off-lock folding a run reads the run's own segments; the coalescer then
// splices its fold over them, below the merge boundary, and the merge's
// completion drops it. Nothing is lost or merged twice, whichever finishes
// first — run many times, under -race, with the two orders interleaving.
func TestMergeRacesCoalescerSplice(t *testing.T) {
	vs := testDocs(1200, 55)
	for round := 0; round < 8; round++ {
		cfg := testConfig(4000)
		cfg.AutoMerge = false
		n, err := Open(bg, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.Insert(bg, vs[:400]); err != nil {
			t.Fatal(err)
		}
		mustMerge(t, n)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { // single-row inserts: the coalescer folds after almost every one
			defer wg.Done()
			for at := 400; at < 1200; at += 1 + at%3 {
				if _, err := n.Insert(bg, vs[at:min(at+1+at%3, 1200)]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 6+round; i++ {
				if err := n.MergeNow(bg); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		wg.Wait()
		mustMerge(t, n)
		if n.StaticLen() != 1200 || n.DeltaLen() != 0 {
			t.Fatalf("round %d: split %d/%d", round, n.StaticLen(), n.DeltaLen())
		}
		requireStaticMatchesRebuild(t, fmt.Sprintf("round %d", round), n, n.deleted)
	}
}

// TestMergeUsesTombstonesOfItsStart: a merge sizes each table's item array
// from one count of the live items and then fills it; Deletes keep landing
// while it does both. Every row deleted before the merge began is in no
// bucket, every other row is in its bucket in every table — deleted
// mid-merge or not — and no array comes out short or with a gap: the merge
// works from one copy of the tombstone words, taken when it starts.
func TestMergeUsesTombstonesOfItsStart(t *testing.T) {
	cfg := testConfig(4000)
	cfg.AutoMerge = false
	n, err := Open(bg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	vs := testDocs(3000, 57)
	if _, err := n.Insert(bg, vs[:1500]); err != nil {
		t.Fatal(err)
	}
	mustMerge(t, n)
	for at := 1500; at < 3000; at += 60 {
		if _, err := n.Insert(bg, vs[at:at+60]); err != nil {
			t.Fatal(err)
		}
	}
	before := bitvec.New(cfg.Capacity)
	for id := 5; id < 3000; id += 11 {
		if err := n.Delete(uint32(id)); err != nil {
			t.Fatal(err)
		}
		before.Set(id)
	}

	started, release := holdMerge(t, n, &testHookMergeStart)
	done := make(chan error, 1)
	go func() { done <- n.MergeNow(bg) }()
	<-started
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // tombstones on both sides of the boundary, for as long as the merge runs
		defer wg.Done()
		for id := 0; ; id = (id + 7) % 3000 {
			select {
			case <-stop:
				return
			default:
			}
			if id%11 != 5 {
				n.Delete(uint32(id))
			}
		}
	}()
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	// A Delete that landed after the hold was released but before the merge
	// copied the words is compacted too: the merged index lies between the
	// rebuild under `before` and the rebuild under every tombstone set now.
	n.mu.Lock()
	st := n.static
	n.mu.Unlock()
	if err := core.ValidateTables(n.fam.Params(), 3000, st.Tables()); err != nil {
		t.Fatal(err)
	}
	floor := n.rebuilt(n.store.Prefix(3000), n.deleted)
	ceil := n.rebuilt(n.store.Prefix(3000), before)
	for l := 0; l < st.NumTables(); l++ {
		for key := 0; key < n.fam.Params().Buckets(); key++ {
			got := st.Table(l).Bucket(nil, uint32(key))
			lo, hi := floor.Table(l).Bucket(nil, uint32(key)), ceil.Table(l).Bucket(nil, uint32(key))
			// got is hi minus some rows deleted mid-merge, and holds all of lo.
			i, j := 0, 0
			for _, id := range hi {
				inGot := i < len(got) && got[i] == id
				inLo := j < len(lo) && lo[j] == id
				if inGot {
					i++
				}
				if inLo {
					j++
				}
				if inLo && !inGot {
					t.Fatalf("table %d bucket %d lost live row %d: %v, want within %v", l, key, id, got, hi)
				}
			}
			if i != len(got) {
				t.Fatalf("table %d bucket %d = %v holds rows outside %v", l, key, got, hi)
			}
		}
	}
}
