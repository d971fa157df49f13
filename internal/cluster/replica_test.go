package cluster

import (
	"context"
	"errors"
	"testing"
	"time"

	"plsh/internal/node"
	"plsh/internal/sparse"
	"plsh/internal/transport"
)

// TestNewReplicatedValidation pins the placement contract: endpoints must
// divide evenly into groups, r ≤ 0 means single-copy, and the insert
// window is clamped in group units.
func TestNewReplicatedValidation(t *testing.T) {
	if _, err := NewWithOptions(bg, testNodes(t, 5, 100), Options{WindowM: 2, Replicas: 2}); err == nil {
		t.Fatal("5 nodes accepted for groups of 2 replicas")
	}
	c, err := NewWithOptions(bg, testNodes(t, 4, 100), Options{WindowM: 99, Replicas: 0})
	if err != nil {
		t.Fatal(err)
	}
	if c.Replicas() != 1 || c.NumGroups() != 4 || c.m != 4 {
		t.Fatalf("r=0 cluster: replicas=%d groups=%d window=%d", c.Replicas(), c.NumGroups(), c.m)
	}
	c, err = NewWithOptions(bg, testNodes(t, 6, 100), Options{WindowM: 99, Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	if c.Replicas() != 3 || c.NumGroups() != 2 || c.NumNodes() != 6 || c.m != 2 {
		t.Fatalf("replicated cluster shape: replicas=%d groups=%d nodes=%d window=%d",
			c.Replicas(), c.NumGroups(), c.NumNodes(), c.m)
	}
}

// TestReplicatedInsertMirrors: with R=2, every member of a group holds an
// identical copy of the group's documents, global IDs are group-indexed,
// and every document is findable — from either replica, since the
// preferred member rotates across searches.
func TestReplicatedInsertMirrors(t *testing.T) {
	nodes := testNodes(t, 4, 1000) // 2 groups × 2 replicas
	c, err := NewWithOptions(bg, nodes, Options{WindowM: 2, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	vs := testDocs(300, 41)
	ids, err := c.Insert(bg, vs)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := c.Stats(bg)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for g := 0; g < 2; g++ {
		a := stats[2*g].StaticLen + stats[2*g].DeltaLen
		b := stats[2*g+1].StaticLen + stats[2*g+1].DeltaLen
		if a != b {
			t.Fatalf("group %d mirrors diverge: %d vs %d docs", g, a, b)
		}
		total += a
	}
	if total != 300 {
		t.Fatalf("unique docs across groups = %d, want 300", total)
	}
	for i, id := range ids {
		if g, _ := SplitGlobalID(id); g < 0 || g >= 2 {
			t.Fatalf("doc %d assigned to nonexistent group %d", i, g)
		}
	}
	// Two passes so the rotating preference makes both replicas of each
	// group serve at least once.
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < len(vs); i += 37 {
			res := searchOne(t, c, vs[i], node.SearchParams{})
			if !findGlobal(res, ids[i]) {
				t.Fatalf("pass %d: doc %d (gid %d) not found", pass, i, ids[i])
			}
		}
	}
}

// TestReplicatedSearchFailsOver: a dead replica is masked by its sibling —
// the search completes, the report stays Complete, and the failover is
// visible in the attempt trace.
func TestReplicatedSearchFailsOver(t *testing.T) {
	down := &fakeNode{capacity: 100, err: errors.New("replica down")}
	up := &fakeNode{capacity: 100}
	c, err := NewWithOptions(bg, []transport.NodeClient{down, up}, Options{WindowM: 1, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	qs := testDocs(3, 43)
	failovers := 0
	for i := 0; i < 2; i++ { // rotation covers both preference orders
		res, report, err := c.Search(bg, qs, node.SearchParams{}, BatchOptions{Trace: true})
		if err != nil {
			t.Fatalf("search %d with one dead replica: %v", i, err)
		}
		if len(res) != 3 {
			t.Fatalf("search %d: %d answer lists", i, len(res))
		}
		if !report.Complete() || len(report.Stragglers()) != 0 {
			t.Fatalf("search %d: report not Complete with a live sibling: %+v", i, report)
		}
		if len(report.Times) != 1 || len(report.Errs) != 1 {
			t.Fatalf("search %d: report sized per group: %+v", i, report)
		}
		winner := -1
		for _, a := range report.Attempts {
			if a.Won {
				if a.Err != nil {
					t.Fatalf("winning attempt carries error %v", a.Err)
				}
				winner = a.Node
			}
		}
		if winner != 1 {
			t.Fatalf("search %d: winner node = %d, want 1 (the live replica)", i, winner)
		}
		failovers += report.Failovers()
	}
	// Exactly one of the two searches preferred the dead replica first.
	if failovers != 1 {
		t.Fatalf("failovers across both preference orders = %d, want 1", failovers)
	}
}

// TestHedgeRacesSlowReplica: a merely-slow replica is raced after the
// hedge delay and the sibling's answer wins, long before the straggler
// would have answered; the rescue is visible in HedgesWon.
func TestHedgeRacesSlowReplica(t *testing.T) {
	slow := &fakeNode{capacity: 100, delay: time.Hour}
	fast := &fakeNode{capacity: 100}
	c, err := NewWithOptions(bg, []transport.NodeClient{slow, fast}, Options{WindowM: 1, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	qs := testDocs(2, 47)
	hedgesWon := 0
	t0 := time.Now()
	for i := 0; i < 2; i++ { // rotation: one search prefers the slow replica
		res, report, err := c.Search(bg, qs, node.SearchParams{}, BatchOptions{Hedge: 10 * time.Millisecond, Trace: true})
		if err != nil {
			t.Fatalf("hedged search %d: %v", i, err)
		}
		if len(res) != 2 || !report.Complete() {
			t.Fatalf("hedged search %d: res=%d report=%+v", i, len(res), report)
		}
		hedgesWon += report.HedgesWon()
	}
	if elapsed := time.Since(t0); elapsed > 10*time.Second {
		t.Fatalf("hedged searches took %v; the hedge never fired", elapsed)
	}
	if hedgesWon != 1 {
		t.Fatalf("hedges won across both preference orders = %d, want 1", hedgesWon)
	}

	// Without replicas to race, the hedge is inert and the slow node
	// stalls the search until its deadline.
	single, err := NewWithOptions(bg, []transport.NodeClient{&fakeNode{capacity: 100, delay: time.Hour}}, Options{WindowM: 1, Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(bg, 30*time.Millisecond)
	defer cancel()
	if _, _, err := single.Search(ctx, qs, node.SearchParams{}, BatchOptions{Hedge: time.Millisecond}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("single-copy hedge: %v, want DeadlineExceeded", err)
	}
}

// TestInsertErrorReportsPlaced pins the mid-batch contract: a per-group
// failure partway through an Insert returns an *InsertError that says
// exactly which documents were durably assigned global IDs before the
// error — the caller is never left guessing what the cluster holds.
func TestInsertErrorReportsPlaced(t *testing.T) {
	cause := errors.New("node down mid-batch")
	real := testNodes(t, 1, 1000)[0]
	nodes := []transport.NodeClient{real, &fakeNode{capacity: 1000, err: cause}}
	c, err := NewWithOptions(bg, nodes, Options{WindowM: 2})
	if err != nil {
		t.Fatal(err)
	}
	vs := testDocs(100, 49)
	ids, err := c.Insert(bg, vs)
	if err == nil {
		t.Fatal("insert succeeded with a dead window node")
	}
	if ids != nil {
		t.Fatal("failed insert returned ids alongside the error")
	}
	if !errors.Is(err, cause) {
		t.Fatalf("insert error does not unwrap to the node failure: %v", err)
	}
	var ie *InsertError
	if !errors.As(err, &ie) {
		t.Fatalf("insert error is not an *InsertError: %v", err)
	}
	if len(ie.IDs) != 100 || len(ie.Placed) != 100 {
		t.Fatalf("InsertError sized %d/%d, want 100/100", len(ie.IDs), len(ie.Placed))
	}
	// The even split routed the first half to the healthy node 0 before
	// the second share hit the dead node.
	for i := 0; i < 50; i++ {
		if !ie.Placed[i] {
			t.Fatalf("doc %d reported unplaced despite landing before the failure", i)
		}
		if g, _ := SplitGlobalID(ie.IDs[i]); g != 0 {
			t.Fatalf("doc %d placed on group %d, want 0", i, g)
		}
	}
	for i := 50; i < 100; i++ {
		if ie.Placed[i] {
			t.Fatalf("doc %d reported placed despite the failure", i)
		}
	}
	// The placed documents are really in the cluster and findable (the
	// dead node is still dead, so the verifying search must be partial).
	res, _, err := c.Search(bg, []sparse.Vector{vs[0]}, node.SearchParams{}, BatchOptions{Partial: true})
	if err != nil {
		t.Fatal(err)
	}
	if !findGlobal(res[0], ie.IDs[0]) {
		t.Fatal("doc reported placed is not findable")
	}
	// A canceled context reports the same way (Unwrap → context.Canceled).
	canceled, cancel := context.WithCancel(bg)
	cancel()
	if _, err := c.Insert(canceled, vs); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled insert: %v", err)
	}
}

// TestPartialFullGroupIsDriftNotRetry: one member reporting ErrFull while
// its mirror accepts the batch is replica drift, not a full group —
// Insert must fail loudly instead of resyncing and re-sending the batch
// into the mirrors that already accepted it (which would duplicate every
// document).
func TestPartialFullGroupIsDriftNotRetry(t *testing.T) {
	okMember := &fakeNode{capacity: 100}
	fullMember := &fakeNode{capacity: 100, err: node.ErrFull}
	c, err := NewWithOptions(bg, []transport.NodeClient{okMember, fullMember}, Options{WindowM: 1, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Insert(bg, testDocs(10, 61))
	if err == nil {
		t.Fatal("insert succeeded with a drifted (partially full) group")
	}
	// The ErrFull sentinel must NOT surface: Insert's resync-and-retry
	// path keys on it, and retrying would duplicate the batch on the
	// member that accepted it.
	if errors.Is(err, node.ErrFull) {
		t.Fatalf("partial-full drift surfaced as group-full: %v", err)
	}
	var ie *InsertError
	if !errors.As(err, &ie) {
		t.Fatalf("drifted insert did not report via InsertError: %v", err)
	}
	for i, p := range ie.Placed {
		if p {
			t.Fatalf("doc %d reported durably placed despite the drifted group", i)
		}
	}
}

// TestReplicatedDeleteReachesAllMirrors: a tombstone lands on every
// member of the group, so the document stays gone no matter which replica
// serves the next search; never-inserted IDs stay ErrNotFound.
func TestReplicatedDeleteReachesAllMirrors(t *testing.T) {
	c, err := NewWithOptions(bg, testNodes(t, 2, 500), Options{WindowM: 1, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	vs := testDocs(100, 51)
	ids, err := c.Insert(bg, vs)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(bg, ids[7]); err != nil {
		t.Fatal(err)
	}
	// Both passes: the rotating preference makes each replica serve once.
	for pass := 0; pass < 2; pass++ {
		res := searchOne(t, c, vs[7], node.SearchParams{})
		if findGlobal(res, ids[7]) {
			t.Fatalf("pass %d: deleted doc served by a mirror", pass)
		}
	}
	if err := c.Delete(bg, GlobalID(0, 9999)); !errors.Is(err, node.ErrNotFound) {
		t.Fatalf("never-inserted id: %v, want ErrNotFound", err)
	}
	if err := c.Delete(bg, GlobalID(99, 0)); !errors.Is(err, node.ErrNotFound) {
		t.Fatalf("nonexistent group: %v, want ErrNotFound", err)
	}
}

// TestDocFailsOverToSibling: Doc is served by any live member; only
// failure of every member is an error.
func TestDocFailsOverToSibling(t *testing.T) {
	// Real pair: the doc comes back from a replicated group.
	c, err := NewWithOptions(bg, testNodes(t, 2, 500), Options{WindowM: 1, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	vs := testDocs(50, 53)
	ids, err := c.Insert(bg, vs)
	if err != nil {
		t.Fatal(err)
	}
	v, known, err := c.Doc(bg, ids[3])
	if err != nil || !known || v.NNZ() != vs[3].NNZ() {
		t.Fatalf("replicated Doc: known=%v err=%v", known, err)
	}

	// One dead member: the sibling answers authoritatively.
	mixed, err := NewWithOptions(bg, []transport.NodeClient{
		&fakeNode{capacity: 100, err: errors.New("down")},
		&fakeNode{capacity: 100},
	}, Options{WindowM: 1, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, known, err := mixed.Doc(bg, GlobalID(0, 1)); err != nil || known {
		t.Fatalf("doc with one dead member: known=%v err=%v", known, err)
	}

	// Every member dead: an error, not a silent unknown.
	dead, err := NewWithOptions(bg, []transport.NodeClient{
		&fakeNode{capacity: 100, err: errors.New("down")},
		&fakeNode{capacity: 100, err: errors.New("down")},
	}, Options{WindowM: 1, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := dead.Doc(bg, GlobalID(0, 1)); err == nil {
		t.Fatal("Doc succeeded with every member dead")
	}
}

// TestReplicatedWindowRetiresWholeGroups: expiration erases every member
// of the groups the window wraps onto, so no mirror keeps serving expired
// documents.
func TestReplicatedWindowRetiresWholeGroups(t *testing.T) {
	// 2 groups × 2 replicas, 100 docs/group capacity, window 1 group:
	// 300 docs force a wrap through both groups and back onto group 0.
	c, err := NewWithOptions(bg, testNodes(t, 4, 100), Options{WindowM: 1, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	vs := testDocs(300, 55)
	ids, err := c.Insert(bg, vs)
	if err != nil {
		t.Fatal(err)
	}
	res := searchOne(t, c, vs[0], node.SearchParams{})
	if findGlobal(res, ids[0]) {
		t.Fatal("expired doc still answers at its original global ID")
	}
	last := len(vs) - 1
	res = searchOne(t, c, vs[last], node.SearchParams{})
	if !findGlobal(res, ids[last]) {
		t.Fatal("most recent doc not found after wrap")
	}
	stats, err := c.Stats(bg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(stats); i += 2 {
		a := stats[i].StaticLen + stats[i].DeltaLen
		b := stats[i+1].StaticLen + stats[i+1].DeltaLen
		if a != b {
			t.Fatalf("group %d mirrors diverge after retirement: %d vs %d", i/2, a, b)
		}
	}
}

// TestReplicatedEquivalentToSingleCopy: the same stream through an R=2
// cluster and a single node answers with identical result counts — the
// mirrors add fault tolerance, never extra (or duplicate) answers.
func TestReplicatedEquivalentToSingleCopy(t *testing.T) {
	vs := testDocs(400, 57)
	queries := testDocs(25, 59)

	single := testNodes(t, 1, 1000)[0]
	if _, err := single.Insert(bg, vs); err != nil {
		t.Fatal(err)
	}

	c, err := NewWithOptions(bg, testNodes(t, 4, 200), Options{WindowM: 2, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert(bg, vs); err != nil {
		t.Fatal(err)
	}

	singleRes, err := single.Search(bg, queries, node.SearchParams{})
	if err != nil {
		t.Fatal(err)
	}
	clusterRes, _, err := c.Search(bg, queries, node.SearchParams{}, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for qi := range queries {
		if len(singleRes[qi]) != len(clusterRes[qi]) {
			t.Fatalf("query %d: single %d vs replicated cluster %d results",
				qi, len(singleRes[qi]), len(clusterRes[qi]))
		}
	}
}

// TestOneMemberGroupsRunTheSameStateMachine: Replicas = 1 is not a code
// path. A one-member group goes through the search loop's failover/hedge
// state machine like any other — it traces one attempt per group (replica
// 0 of the group, so Node equals Group), never arms the hedge, fails on
// the first error and counts it, honours the per-node timeout — and its
// writes go through the same mirrored insert and delete, so a full or
// unknowing member still surfaces as the sentinel callers test for.
func TestOneMemberGroupsRunTheSameStateMachine(t *testing.T) {
	c, err := NewWithOptions(bg, []transport.NodeClient{
		&fakeNode{capacity: 100},
		&fakeNode{capacity: 100, err: errDown},
		&fakeNode{capacity: 100, delay: time.Hour},
	}, Options{WindowM: 1, Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	res, rep, err := c.Search(bg, testDocs(2, 59), node.SearchParams{}, BatchOptions{
		Partial: true, Trace: true, Hedge: time.Millisecond, PerNodeTimeout: 30 * time.Millisecond,
	})
	if err != nil || len(res) != 2 {
		t.Fatalf("partial search over one live group: res=%d err=%v", len(res), err)
	}
	if elapsed := time.Since(t0); elapsed > 10*time.Second {
		t.Fatalf("search took %v; the per-node timeout never cut the stalled member off", elapsed)
	}
	if len(rep.Attempts) != 3 {
		t.Fatalf("%d attempts traced, want one per group: %+v", len(rep.Attempts), rep.Attempts)
	}
	for g, a := range rep.Attempts {
		a.Time = 0
		want := Attempt{Group: g, Replica: 0, Node: g, Won: g == 0}
		switch g {
		case 1:
			want.Err = errDown
		case 2:
			want.Err = context.DeadlineExceeded
		}
		if a != want {
			t.Fatalf("group %d traced %+v, want %+v", g, a, want)
		}
	}
	if !errors.Is(rep.Errs[1], errDown) || !errors.Is(rep.Errs[2], context.DeadlineExceeded) || rep.Errs[0] != nil {
		t.Fatalf("report errors = %v", rep.Errs)
	}
	if st := c.CoordStats(); st.GroupFailures != 2 || st.Failovers != 0 || st.HedgesLaunched != 0 {
		t.Fatalf("coordinator counted %+v, want 2 group failures and nothing to fail over or hedge to", st)
	}

	real, err := NewWithOptions(bg, testNodes(t, 1, 2), Options{Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := real.insertGroup(bg, 0, testDocs(3, 61)); !errors.Is(err, node.ErrFull) {
		t.Fatalf("three documents into a member of capacity 2: %v, want ErrFull", err)
	}
	ids, err := real.insertGroup(bg, 0, testDocs(2, 61))
	if err != nil || len(ids) != 2 {
		t.Fatalf("insert on a one-member group: ids=%v err=%v", ids, err)
	}
	if err := real.Delete(bg, GlobalID(0, ids[1])); err != nil {
		t.Fatal(err)
	}
	if err := real.Delete(bg, GlobalID(0, 7)); !errors.Is(err, node.ErrNotFound) {
		t.Fatalf("deleting a never-inserted id: %v, want ErrNotFound", err)
	}
}
