package plsh

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"plsh/internal/core"
	"plsh/internal/lshhash"
	"plsh/internal/node"
	"plsh/internal/transport"
)

// killableTCPNode is an in-process plsh node served over real TCP whose
// "process death" is simulated by tearing down its listener and every
// open connection; restart re-listens on the same address over the same
// backend (a real SIGKILL plus journal recovery is exercised by the slow
// fault-injection suite in faultinjection_slow_test.go).
type killableTCPNode struct {
	t    *testing.T
	addr string
	n    *node.Node
	stop context.CancelFunc
	done chan struct{}
}

func startKillableTCPNode(t *testing.T, capacity int) *killableTCPNode {
	t.Helper()
	nd, err := node.Open(bg, node.Config{
		Params:   lshhash.Params{Dim: 2000, K: 4, M: 16, Seed: 42},
		Capacity: capacity,
		Build:    core.Defaults(),
		Query:    core.QueryDefaults(),
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	k := &killableTCPNode{t: t, addr: l.Addr().String(), n: nd}
	k.serve(l)
	t.Cleanup(func() { k.stop() })
	return k
}

func (k *killableTCPNode) serve(l net.Listener) {
	ctx, cancel := context.WithCancel(context.Background())
	k.stop = cancel
	done := make(chan struct{})
	k.done = done
	go func() {
		defer close(done)
		transport.Serve(ctx, l, transport.NewLocal(k.n), nil)
	}()
}

func (k *killableTCPNode) kill() {
	k.stop()
	<-k.done
}

func (k *killableTCPNode) restart() {
	k.t.Helper()
	var l net.Listener
	var err error
	for deadline := time.Now().Add(5 * time.Second); ; {
		l, err = net.Listen("tcp", k.addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			k.t.Fatalf("re-listen on %s: %v", k.addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	k.serve(l)
}

// TestReplicatedFailoverTCP is the fast (in-process servers, real TCP)
// version of the acceptance criterion: on a 6-node Replicas=2 cluster,
// killing any single node leaves every SearchBatch Complete with answers
// identical to the no-failure oracle; a killed node that comes back
// rejoins (its transport.Client re-dials it) and serves the group alone
// when its sibling dies next.
func TestReplicatedFailoverTCP(t *testing.T) {
	servers := make([]*killableTCPNode, 6)
	addrs := make([]string, 6)
	for i := range servers {
		servers[i] = startKillableTCPNode(t, 200)
		addrs[i] = servers[i].addr
	}
	cl, err := DialCluster(bg, addrs, 3, WithReplicas(2))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if cl.NumNodes() != 6 || cl.NumGroups() != 3 || cl.Replicas() != 2 {
		t.Fatalf("cluster shape: nodes=%d groups=%d replicas=%d",
			cl.NumNodes(), cl.NumGroups(), cl.Replicas())
	}

	docs := SyntheticTweets(300, 2000, 63)
	ids, err := cl.Insert(bg, docs)
	if err != nil {
		t.Fatal(err)
	}
	queries := docs[:16]
	oracle, oracleReport, err := cl.SearchBatch(bg, queries)
	if err != nil || !oracleReport.Complete() {
		t.Fatalf("pre-kill oracle: err=%v complete=%v", err, oracleReport.Complete())
	}

	// Kill each node in turn; searches issued while it is down — including
	// ones racing the kill itself — must stay Complete and answer exactly
	// the oracle, masked by the sibling replica.
	for victim := range servers {
		type outcome struct {
			res    []Result
			report Report
			err    error
		}
		outcomes := make(chan outcome, 4)
		go func() {
			for j := 0; j < 4; j++ {
				res, report, err := cl.SearchBatch(bg, queries)
				outcomes <- outcome{res, report, err}
			}
		}()
		time.Sleep(2 * time.Millisecond)
		servers[victim].kill()
		for j := 0; j < 4; j++ {
			o := <-outcomes
			if o.err != nil {
				t.Fatalf("victim %d racing search %d failed: %v", victim, j, o.err)
			}
			if !o.report.Complete() {
				t.Fatalf("victim %d racing search %d: incomplete report, stragglers %v",
					victim, j, o.report.Stragglers())
			}
			if !reflect.DeepEqual(o.res, oracle) {
				t.Fatalf("victim %d racing search %d: answers diverge from the pre-kill oracle", victim, j)
			}
		}
		// Post-kill, the dead replica is certainly dead: keep searching
		// until the rotating preference routes its group to it and the
		// failover is recorded (a handful of searches in practice — the
		// winning member is asserted every time regardless).
		sawFailover := false
		for j := 0; j < 50 && !sawFailover; j++ {
			res, report, err := cl.SearchBatch(bg, queries, WithTrace())
			if err != nil {
				t.Fatalf("victim %d post-kill search %d failed: %v", victim, j, err)
			}
			if !report.Complete() {
				t.Fatalf("victim %d post-kill search %d: incomplete, stragglers %v",
					victim, j, report.Stragglers())
			}
			if !reflect.DeepEqual(res, oracle) {
				t.Fatalf("victim %d post-kill search %d: answers diverge from the oracle", victim, j)
			}
			for _, a := range report.Attempts {
				if a.Won && a.Node == victim {
					t.Fatalf("victim %d post-kill search %d: dead replica recorded as winner", victim, j)
				}
			}
			sawFailover = report.Failovers() > 0
		}
		if !sawFailover {
			t.Fatalf("victim %d: no failover recorded across 50 searches with a dead replica", victim)
		}
		servers[victim].restart()
	}

	// Rejoin: node 0 was killed and restarted above. Kill its sibling
	// (node 1) — group 0 is now served solely by the rejoined node 0, and
	// the answers must still be the oracle's.
	servers[1].kill()
	res, report, err := cl.SearchBatch(bg, queries)
	if err != nil || !report.Complete() {
		t.Fatalf("search with rejoined node serving alone: err=%v complete=%v", err, report.Complete())
	}
	if !reflect.DeepEqual(res, oracle) {
		t.Fatal("rejoined replica answers diverge from the oracle")
	}
	servers[1].restart()

	// Whole group down: kill both members of group 2 (nodes 4 and 5).
	// All-or-nothing fails; AllowPartial degrades to the documented
	// partial answer with the dead group named in the report.
	servers[4].kill()
	servers[5].kill()
	if _, _, err := cl.SearchBatch(bg, queries); err == nil {
		t.Fatal("all-or-nothing SearchBatch succeeded with a whole group dead")
	}
	pres, preport, err := cl.SearchBatch(bg, queries, AllowPartial())
	if err != nil {
		t.Fatalf("partial SearchBatch with a dead group: %v", err)
	}
	if s := preport.Stragglers(); len(s) != 1 || s[0] != 2 {
		t.Fatalf("stragglers = %v, want [2] (the dead group)", s)
	}
	// The partial answer is the oracle minus the dead group's documents.
	for qi := range queries {
		var want []Match
		for _, m := range oracle[qi].Matches {
			if m.Node() != 2 {
				want = append(want, m)
			}
		}
		if !reflect.DeepEqual(pres[qi].Matches, want) {
			t.Fatalf("query %d: partial answer is not oracle-minus-group-2", qi)
		}
	}

	// Deletes route to all mirrors; with one restarted earlier and all
	// live again, a delete stays deleted from every replica.
	servers[4].restart()
	servers[5].restart()
	waitHealthy := func() {
		deadline := time.Now().Add(10 * time.Second)
		for {
			if _, _, err := cl.SearchBatch(bg, queries[:1]); err == nil {
				return
			}
			if time.Now().After(deadline) {
				t.Fatal("cluster never healed after restarts")
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	waitHealthy()
	if err := cl.Delete(bg, ids[0]); err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ { // rotation: both replicas serve
		got, err := cl.Search(bg, docs[0])
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range got.Matches {
			if m.ID == ids[0] {
				t.Fatalf("pass %d: deleted doc served by a mirror", pass)
			}
		}
	}
}

// TestWithHedgeTCP: a hedged search against a healthy TCP cluster is a
// clean no-op (no hedges needed, identical answers), pinning that the
// hedge path does not perturb results.
func TestWithHedgeTCP(t *testing.T) {
	servers := make([]*killableTCPNode, 4)
	addrs := make([]string, 4)
	for i := range servers {
		servers[i] = startKillableTCPNode(t, 200)
		addrs[i] = servers[i].addr
	}
	cl, err := DialCluster(bg, addrs, 2, WithReplicas(2))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	docs := SyntheticTweets(200, 2000, 65)
	if _, err := cl.Insert(bg, docs); err != nil {
		t.Fatal(err)
	}
	plain, _, err := cl.SearchBatch(bg, docs[:8])
	if err != nil {
		t.Fatal(err)
	}
	hedged, report, err := cl.SearchBatch(bg, docs[:8], WithHedge(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, hedged) {
		t.Fatal("hedged search answers differ from plain search")
	}
	if !report.Complete() {
		t.Fatal("hedged search incomplete on a healthy cluster")
	}
}

// TestReplicatedClusterEquivalence is the seeded randomized property
// test: sweeping (radius, k, replicas ∈ {1,2,3}) at the suite's geometry
// (K 16, M 16), Search on a replicated cluster must equal the single-copy
// cluster and the sketch oracle for every document as the query, each
// match's Node and Local must be its ID's replica group and local ID, and
// each SearchBatch counts once in CoordStats. The whole suite runs under
// -race in CI, so the replicated fan-out is exercised for data races too.
// Replica placement moves documents between groups, so results are
// compared by document identity (via each cluster's own ID map) and by
// distance sequence, both of which are placement-invariant.
func TestReplicatedClusterEquivalence(t *testing.T) {
	docs := SyntheticTweets(240, 2000, 67)
	rng := rand.New(rand.NewSource(71))
	type trial struct {
		radius float64
		k      int
	}
	trials := []trial{{0.9, 0}} // the default shape, always covered
	for i := 0; i < 5; i++ {
		trials = append(trials, trial{
			radius: 0.8 + 0.4*rng.Float64(),
			k:      []int{0, 1, 5, 20}[rng.Intn(4)],
		})
	}

	// signature flattens one cluster's answers placement-invariantly:
	// document positions (by that cluster's own IDs) for unbounded
	// searches, distance sequences when k bounds the answer (a distance
	// tie at the k boundary may legitimately pick a different — equally
	// near — document under a different placement).
	signature := func(res []Result, pos map[uint64]int, k int) [][]float64 {
		out := make([][]float64, len(res))
		for i, r := range res {
			for _, m := range r.Matches {
				if k > 0 {
					out[i] = append(out[i], m.Dist)
				} else {
					out[i] = append(out[i], float64(pos[m.ID]))
				}
			}
			if k == 0 {
				sort.Float64s(out[i])
			}
		}
		return out
	}

	var baseline [][][]float64 // per trial, from the replicas=1 cluster
	for _, replicas := range []int{1, 2, 3} {
		cfg := Config{
			Dim: 2000, K: 16, M: 16, Radius: 0.9, Capacity: 200,
			Replicas: replicas, Seed: 42,
		}
		cl, err := OpenCluster(bg, 6, 0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ids, err := cl.Insert(bg, docs)
		if err != nil {
			t.Fatal(err)
		}
		o := newOracle(t, cfg, docs)
		pos := make(map[uint64]int, len(ids))
		for i, id := range ids {
			pos[id] = i
		}
		answers := 0
		for ti, tr := range trials {
			opts := []SearchOption{WithRadius(tr.radius)}
			if tr.k > 0 {
				opts = append(opts, WithK(tr.k))
			}
			before := cl.CoordStats()
			res, report, err := cl.SearchBatch(bg, docs, opts...)
			if err != nil {
				t.Fatalf("replicas=%d trial %d: %v", replicas, ti, err)
			}
			if !report.Complete() {
				t.Fatalf("replicas=%d trial %d: incomplete on a healthy cluster", replicas, ti)
			}
			if after := cl.CoordStats(); after.Searches != before.Searches+1 || after.Queries != before.Queries+uint64(len(docs)) {
				t.Fatalf("replicas=%d trial %d: CoordStats moved from %+v to %+v, want one search of %d queries", replicas, ti, before, after, len(docs))
			}
			// ≡ the sketch oracle, in this cluster's own ID space.
			for qi, q := range docs {
				requireMatchesEqual(t, "replicated vs oracle", res[qi].Matches,
					wantMatches(o, ids, q, tr.radius, tr.k))
				if tr.k == 0 {
					answers += nonSelf(res[qi].Matches, ids[qi])
				}
				// Node and Local unpack the replica group, not a node.
				for _, m := range res[qi].Matches {
					if g, l := SplitGlobalID(m.ID); m.Node() != g || m.Local() != l || g >= cl.NumGroups() {
						t.Fatalf("replicas=%d: match %#x has Node %d, Local %d; want group %d < %d, local %d",
							replicas, m.ID, m.Node(), m.Local(), g, cl.NumGroups(), l)
					}
				}
			}
			// ≡ the single-copy cluster, placement-invariantly.
			sig := signature(res, pos, tr.k)
			if replicas == 1 {
				baseline = append(baseline, sig)
			} else if !reflect.DeepEqual(sig, baseline[ti]) {
				t.Fatalf("replicas=%d trial %d (r=%.3f k=%d): diverges from single-copy cluster",
					replicas, ti, tr.radius, tr.k)
			}
		}
		cl.Close()
		requireNonSelfFloor(t, answers, 90)
	}
}

// TestPartitionedRoutingRecallSweep is the routed arm of the seeded
// randomized sweep at the suite's geometry: under partitioned placement,
// Search across random (radius, k) trials and replica counts, with every
// document as the query, must return only matches the sketch oracle
// returns (exact distances, canonical order), and the unbounded trials
// must each find at least the configured RoutingRecall fraction of the
// oracle's answers other than the query itself. The scatter
// arm's exact ≡ oracle equivalence is pinned separately by
// TestReplicatedClusterEquivalence — partitioned placement trades that
// exactness for pruned fan-out, and this sweep pins the bound it trades
// down to. Fully seeded, so realized recall is deterministic.
func TestPartitionedRoutingRecallSweep(t *testing.T) {
	const target = 0.8
	docs := SyntheticTweets(240, 2000, 67)
	rng := rand.New(rand.NewSource(73))
	type trial struct {
		radius float64
		k      int
	}
	trials := []trial{{0.9, 0}}
	for i := 0; i < 5; i++ {
		trials = append(trials, trial{
			radius: 0.8 + 0.4*rng.Float64(),
			k:      []int{0, 1, 5, 20}[rng.Intn(4)],
		})
	}
	for _, replicas := range []int{1, 2} {
		cfg := Config{
			Dim: 2000, K: 16, M: 16, Radius: 0.9, Capacity: 200,
			Replicas: replicas, Seed: 42,
			Placement: PlacementPartitioned, RoutingRecall: target,
		}
		cl, err := OpenCluster(bg, 6, 0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ids, err := cl.Insert(bg, docs)
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Merge(bg); err != nil {
			t.Fatal(err)
		}
		o := newOracle(t, cfg, docs)
		answers := 0
		for ti, tr := range trials {
			opts := []SearchOption{WithRadius(tr.radius)}
			if tr.k > 0 {
				opts = append(opts, WithK(tr.k))
			}
			res, report, err := cl.SearchBatch(bg, docs, opts...)
			if err != nil {
				t.Fatalf("replicas=%d trial %d: %v", replicas, ti, err)
			}
			if !report.Complete() {
				t.Fatalf("replicas=%d trial %d: incomplete on a healthy cluster", replicas, ti)
			}
			found, oracleTotal := 0, 0
			for qi, q := range docs {
				want := wantMatches(o, ids, q, tr.radius, 0)
				dist := make(map[uint64]float64, len(want))
				for _, m := range want {
					dist[m.ID] = m.Dist
				}
				got := res[qi].Matches
				if tr.k > 0 && len(got) > tr.k {
					t.Fatalf("replicas=%d trial %d query %d: %d matches exceed k=%d",
						replicas, ti, qi, len(got), tr.k)
				}
				for mi, m := range got {
					if d, ok := dist[m.ID]; !ok || m.Dist != d {
						t.Fatalf("replicas=%d trial %d query %d: match %d at %v, oracle has %v (present %v)",
							replicas, ti, qi, m.ID, m.Dist, d, ok)
					}
					if mi > 0 && got[mi].Dist < got[mi-1].Dist {
						t.Fatalf("replicas=%d trial %d query %d: answers out of order", replicas, ti, qi)
					}
				}
				if tr.k == 0 {
					found += nonSelf(got, ids[qi])
					oracleTotal += nonSelf(want, ids[qi])
				}
			}
			if tr.k == 0 {
				t.Logf("replicas=%d trial %d (r=%.3f): routed %d of the oracle's %d answers other than the query",
					replicas, ti, tr.radius, found, oracleTotal)
				if recall := float64(found) / float64(max(oracleTotal, 1)); recall < target {
					t.Fatalf("replicas=%d trial %d (r=%.3f): routed recall %.3f below target %.2f (%d/%d)",
						replicas, ti, tr.radius, recall, target, found, oracleTotal)
				}
				answers += oracleTotal
			}
		}
		cl.Close()
		requireNonSelfFloor(t, answers, 75)
	}
}

// TestPartitionedPruningAndTraceCounts pins the routed observability
// contract and the fan-out acceptance bound: RoutedGroups/PrunedGroups
// are recorded only under WithTrace (alongside the existing
// Attempts-only-under-WithTrace guarantee), they always sum to
// queries × groups, tracing does not perturb answers, scatter clusters
// report zeros — and on a 16-group fleet the router contacts at most
// half the (query, group) pairs a scatter broadcast would.
func TestPartitionedPruningAndTraceCounts(t *testing.T) {
	const groups = 16
	cl, err := OpenCluster(bg, groups, 0, Config{
		Dim: 2000, K: 4, M: 16, Radius: 0.9, Capacity: 400, Seed: 42,
		Placement: PlacementPartitioned, RoutingRecall: 0.7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	docs := SyntheticTweets(400, 2000, 67)
	if _, err := cl.Insert(bg, docs); err != nil {
		t.Fatal(err)
	}
	if err := cl.Merge(bg); err != nil {
		t.Fatal(err)
	}
	var queries []Vector
	for i := 0; i < len(docs); i += 7 {
		queries = append(queries, docs[i])
	}

	plain, plainReport, err := cl.SearchBatch(bg, queries)
	if err != nil {
		t.Fatal(err)
	}
	if plainReport.RoutedGroups != 0 || plainReport.PrunedGroups != 0 {
		t.Fatalf("untraced routed search recorded counts: routed=%d pruned=%d",
			plainReport.RoutedGroups, plainReport.PrunedGroups)
	}
	if plainReport.Attempts != nil {
		t.Fatal("untraced routed search materialized Attempts")
	}

	traced, report, err := cl.SearchBatch(bg, queries, WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(traced, plain) {
		t.Fatal("tracing perturbed routed answers")
	}
	total := len(queries) * groups
	if report.RoutedGroups+report.PrunedGroups != total {
		t.Fatalf("routed %d + pruned %d ≠ %d query×group pairs",
			report.RoutedGroups, report.PrunedGroups, total)
	}
	if report.RoutedGroups < len(queries) {
		t.Fatalf("routed %d pairs < %d queries; every query probes at least one group",
			report.RoutedGroups, len(queries))
	}
	// The acceptance bound: on ≥ 8 groups, partitioned search contacts at
	// most half the (query, group) pairs scatter would broadcast to.
	if report.RoutedGroups > total/2 {
		t.Fatalf("routed %d of %d pairs: partitioned search contacted more than half the groups",
			report.RoutedGroups, total)
	}
	// Every Attempt must belong to a routed-to group: pruned groups see no
	// RPC at all.
	for _, a := range report.Attempts {
		if a.Group < 0 || a.Group >= groups {
			t.Fatalf("attempt names group %d of %d", a.Group, groups)
		}
	}

	// Scatter placement never records routing counts, traced or not.
	sc, err := NewCluster(4, 0, Config{Dim: 2000, K: 4, M: 16, Capacity: 400, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	if _, err := sc.Insert(bg, docs[:100]); err != nil {
		t.Fatal(err)
	}
	_, sreport, err := sc.SearchBatch(bg, queries[:4], WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	if sreport.RoutedGroups != 0 || sreport.PrunedGroups != 0 {
		t.Fatalf("scatter cluster recorded routing counts: routed=%d pruned=%d",
			sreport.RoutedGroups, sreport.PrunedGroups)
	}
}

// TestPartitionedFailoverTCP is the fast routed-failover check: with
// replicas mirrored inside each routed-to group, killing one member of a
// group the router probes leaves routed searches Complete and identical
// — the failover/hedge machinery runs within the routed set. Killing the
// whole group fails all-or-nothing and degrades AllowPartial to the
// routed answer minus that group, naming it — same contract as scatter
// (the real-process SIGKILL version lives in the slow clustertest suite).
func TestPartitionedFailoverTCP(t *testing.T) {
	servers := make([]*killableTCPNode, 8)
	addrs := make([]string, 8)
	for i := range servers {
		servers[i] = startKillableTCPNode(t, 400)
		addrs[i] = servers[i].addr
	}
	cl, err := DialCluster(bg, addrs, 0, WithReplicas(2),
		WithPartitioned(Config{Dim: 2000, K: 4, M: 16, Seed: 42, RoutingRecall: 0.7}))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if cl.NumGroups() != 4 || cl.Replicas() != 2 {
		t.Fatalf("cluster shape: groups=%d replicas=%d", cl.NumGroups(), cl.Replicas())
	}
	docs := SyntheticTweets(300, 2000, 63)
	queries := docs[:16]
	if _, err := cl.Insert(bg, docs); err != nil {
		t.Fatal(err)
	}
	oracle, report, err := cl.SearchBatch(bg, queries, WithTrace())
	if err != nil || !report.Complete() {
		t.Fatalf("pre-kill routed baseline: err=%v complete=%v", err, report.Complete())
	}
	if report.RoutedGroups == 0 {
		t.Fatal("routing never engaged; the trace recorded no probes")
	}
	// Pick a group the batch certainly probes (routing is deterministic,
	// so every rerun of this batch probes it again) and kill the member
	// that just answered for it — the replica the preference currently
	// favors, so the very next routed search must fail over past it.
	victim, dead := -1, -1
	for _, a := range report.Attempts {
		if a.Won {
			victim, dead = a.Group, a.Node
			break
		}
	}
	if victim < 0 {
		t.Fatal("trace recorded no winning attempt")
	}
	servers[dead].kill()
	sawFailover := false
	for j := 0; j < 50 && !sawFailover; j++ {
		res, rep, err := cl.SearchBatch(bg, queries, WithTrace())
		if err != nil {
			t.Fatalf("routed search %d with a dead member: %v", j, err)
		}
		if !rep.Complete() {
			t.Fatalf("routed search %d: incomplete, stragglers %v", j, rep.Stragglers())
		}
		if !reflect.DeepEqual(res, oracle) {
			t.Fatalf("routed search %d: answers diverge from the pre-kill baseline", j)
		}
		for _, a := range rep.Attempts {
			if a.Won && a.Node == dead {
				t.Fatalf("routed search %d: dead member recorded as winner", j)
			}
		}
		sawFailover = rep.Failovers() > 0
	}
	if !sawFailover {
		t.Fatal("no failover recorded across 50 routed searches with a dead member")
	}
	// Whole routed-to group down: all-or-nothing fails, AllowPartial
	// answers the baseline minus the dead group and names it — exactly
	// the scatter contract. With contiguous pairs the sibling is dead^1.
	servers[dead^1].kill()
	if _, _, err := cl.SearchBatch(bg, queries); err == nil {
		t.Fatal("all-or-nothing routed SearchBatch succeeded with a whole routed-to group dead")
	}
	pres, preport, err := cl.SearchBatch(bg, queries, AllowPartial())
	if err != nil {
		t.Fatalf("partial routed SearchBatch with a dead group: %v", err)
	}
	if s := preport.Stragglers(); len(s) != 1 || s[0] != victim {
		t.Fatalf("stragglers = %v, want [%d] (the dead routed-to group)", s, victim)
	}
	for qi := range queries {
		var want []Match
		for _, m := range oracle[qi].Matches {
			if m.Node() != victim {
				want = append(want, m)
			}
		}
		if !reflect.DeepEqual(pres[qi].Matches, want) {
			t.Fatalf("query %d: partial routed answer is not baseline-minus-group-%d", qi, victim)
		}
	}
}

// TestReplicasConfigValidation: bad replica shapes fail construction
// loudly instead of mis-grouping endpoints.
func TestReplicasConfigValidation(t *testing.T) {
	if _, err := NewCluster(5, 2, Config{Dim: 2000, Replicas: 2}); err == nil {
		t.Fatal("5 nodes accepted for groups of 2")
	}
	if _, err := NewCluster(4, 2, Config{Dim: 2000, Replicas: -1}); err == nil {
		t.Fatal("negative Replicas accepted")
	}
	if _, err := DialCluster(bg, []string{"127.0.0.1:1"}, 1, WithReplicas(0)); err == nil {
		t.Fatal("WithReplicas(0) accepted")
	}
}

// TestInsertErrorSurfacesThroughPublicAPI: the mid-batch insert contract
// crosses the public wrapper intact, and its message names the cause and
// the placed count.
func TestInsertErrorSurfacesThroughPublicAPI(t *testing.T) {
	servers := make([]*killableTCPNode, 2)
	addrs := make([]string, 2)
	for i := range servers {
		servers[i] = startKillableTCPNode(t, 1000)
		addrs[i] = servers[i].addr
	}
	cl, err := DialCluster(bg, addrs, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	servers[1].kill()
	docs := SyntheticTweets(100, 2000, 69)
	_, err = cl.Insert(bg, docs)
	if err == nil {
		t.Fatal("insert succeeded with a dead window node")
	}
	var ie *InsertError
	if !errors.As(err, &ie) {
		t.Fatalf("public insert error is not an *InsertError: %v", err)
	}
	placed := 0
	for i, p := range ie.Placed {
		if p {
			placed++
			if g, _ := SplitGlobalID(ie.IDs[i]); g != 0 {
				t.Fatalf("doc %d reported placed on dead group %d", i, g)
			}
		}
	}
	if placed == 0 || placed == len(docs) {
		t.Fatalf("placed = %d of %d, want a strict mid-batch prefix", placed, len(docs))
	}
	if msg := ie.Error(); !strings.Contains(msg, ie.Err.Error()) || !strings.Contains(msg, fmt.Sprintf("%d/%d", placed, len(docs))) {
		t.Fatalf("InsertError message %q names neither the cause %q nor %d/%d placed", msg, ie.Err, placed, len(docs))
	}
}
