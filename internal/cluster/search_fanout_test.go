package cluster

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"plsh/internal/core"
	"plsh/internal/node"
	"plsh/internal/sparse"
	"plsh/internal/transport"
)

// faultMember wraps a real in-process member with the faults the fan-out
// table injects. before blocks ahead of the search and honors ctx — a
// stalled replica that cancellation and per-node timeouts cut off with no
// answer computed. after sleeps once the answer is computed and ignores
// ctx — a healthy replica slow to deliver, the late-loser shape. err, when
// set, then fails the call like a transport that lost the reply. roll,
// when set, draws after and err per call instead. Every search's sub-batch
// is retained beside a copy — the way a transport still encoding an
// abandoned attempt's frame retains it.
type faultMember struct {
	transport.NodeClient
	before, after time.Duration
	err           error
	roll          func() (after time.Duration, err error)

	mu     sync.Mutex
	served []servedBatch
}

type servedBatch struct {
	qs, copy []sparse.Vector
}

func (m *faultMember) Search(ctx context.Context, qs []sparse.Vector, p node.SearchParams) ([][]core.Neighbor, error) {
	m.mu.Lock()
	m.served = append(m.served, servedBatch{qs: qs, copy: slices.Clone(qs)})
	m.mu.Unlock()
	if m.before > 0 {
		select {
		case <-time.After(m.before):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	after, fail := m.after, m.err
	if m.roll != nil {
		after, fail = m.roll()
	}
	res, err := m.NodeClient.Search(ctx, qs, p)
	time.Sleep(after)
	if err == nil && fail != nil {
		return nil, fail
	}
	return res, err
}

// fanoutFleet is one 8-group × 2-replica coordinator over real nodes
// behind faultMembers, loaded with a corpus a sample of whose documents
// doubles as the query batch.
type fanoutFleet struct {
	c       *Cluster
	members []*faultMember
	qs      []sparse.Vector
	ids     []uint64 // ids[i] is qs[i]'s own global ID
}

const fanoutGroups, fanoutReplicas, fanoutQueries = 8, 2, 8

func newFanoutFleet(t *testing.T, placement Placement) *fanoutFleet {
	t.Helper()
	f := &fanoutFleet{}
	clients := make([]transport.NodeClient, fanoutGroups*fanoutReplicas)
	for i := range clients {
		m := &faultMember{NodeClient: transport.NewLocal(realNode(t, 200))}
		f.members, clients[i] = append(f.members, m), m
	}
	opts := Options{WindowM: fanoutGroups, Replicas: fanoutReplicas, Placement: placement}
	if placement == PlacementPartitioned {
		opts.Router = testRouter(t, RouterConfig{Groups: fanoutGroups})
	}
	var err error
	if f.c, err = NewWithOptions(bg, clients, opts); err != nil {
		t.Fatal(err)
	}
	docs := testDocs(240, 71)
	ids, err := f.c.Insert(bg, docs)
	if err != nil {
		t.Fatal(err)
	}
	// Scatter fills the window's groups with contiguous runs of the batch,
	// so stride through it: the queries' own documents then span groups.
	for i := 0; i < len(docs); i += len(docs) / fanoutQueries {
		f.qs, f.ids = append(f.qs, docs[i]), append(f.ids, ids[i])
	}
	return f
}

// home is the group holding query i's own document — a group every
// placement must contact for that query.
func (f *fanoutFleet) home(i int) int { g, _ := SplitGlobalID(f.ids[i]); return g }

// otherHome is the home of the first query that lives off group g.
func (f *fanoutFleet) otherHome(t *testing.T, g int) int {
	t.Helper()
	for i := range f.qs {
		if h := f.home(i); h != g {
			return h
		}
	}
	t.Fatal("every query lives on one group; the corpus lost its spread")
	return -1
}

// group applies set to every member of group g.
func (f *fanoutFleet) group(g int, set func(m *faultMember)) {
	for _, m := range f.members[g*fanoutReplicas : (g+1)*fanoutReplicas] {
		set(m)
	}
}

// requireSelfMatches checks that every query whose home is not skip finds
// its own document.
func (f *fanoutFleet) requireSelfMatches(t *testing.T, res [][]Neighbor, skip int) {
	t.Helper()
	if len(res) != len(f.qs) {
		t.Fatalf("%d answer lists for %d queries", len(res), len(f.qs))
	}
	for i := range f.qs {
		if f.home(i) != skip && !findGlobal(res[i], f.ids[i]) {
			t.Fatalf("query %d lost its own document (gid %d)", i, f.ids[i])
		}
	}
}

var errDown = errors.New("member down")

// TestSearchFanOutBothPlacements drives the coordinator's one fan-out
// through its failure policy under scatter and partitioned placement from
// one table: the same cases, the same assertions, only the probe plan
// differs. After every case no sub-batch a member was handed may have been
// rewritten since: an abandoned attempt can still be reading it.
func TestSearchFanOutBothPlacements(t *testing.T) {
	cases := []struct {
		name    string
		arm     func(t *testing.T, f *fanoutFleet) // inject faults before the search
		opts    BatchOptions
		timeout time.Duration // caller deadline; 0 = none
		check   func(t *testing.T, f *fanoutFleet, res [][]Neighbor, rep BatchReport, err error)
	}{
		{
			name: "healthy",
			opts: BatchOptions{Trace: true},
			check: func(t *testing.T, f *fanoutFleet, res [][]Neighbor, rep BatchReport, err error) {
				if err != nil || !rep.Complete() {
					t.Fatalf("healthy fan-out: err=%v report=%+v", err, rep)
				}
				f.requireSelfMatches(t, res, -1)
				pairs := len(f.qs) * fanoutGroups
				if f.c.Placement() == PlacementScatter {
					if rep.RoutedGroups != 0 || rep.PrunedGroups != 0 {
						t.Fatalf("scatter reported routing totals %d/%d, want 0/0", rep.RoutedGroups, rep.PrunedGroups)
					}
					for g, d := range rep.Times {
						if d <= 0 {
							t.Fatalf("scatter skipped group %d", g)
						}
					}
				} else if rep.RoutedGroups+rep.PrunedGroups != pairs || rep.PrunedGroups == 0 {
					t.Fatalf("routed %d + pruned %d (query, group) pairs, want them to sum to %d with some pruned",
						rep.RoutedGroups, rep.PrunedGroups, pairs)
				}
			},
		},
		{
			// The failing group fails late, after its healthy siblings have
			// answered and while one sibling is still stalled (it dies of the
			// induced cancellation, which the report must not blame).
			name: "all-or-nothing blames only the failed group",
			arm: func(t *testing.T, f *fanoutFleet) {
				dead := f.home(0)
				f.group(dead, func(m *faultMember) { m.after, m.err = 10*time.Millisecond, errDown })
				f.group(f.otherHome(t, dead), func(m *faultMember) { m.before = time.Hour })
			},
			check: func(t *testing.T, f *fanoutFleet, res [][]Neighbor, rep BatchReport, err error) {
				if !errors.Is(err, errDown) || res != nil {
					t.Fatalf("batch with a dead group: res=%v err=%v, want the group's failure", res, err)
				}
				for g, gerr := range rep.Errs {
					if (gerr != nil) != (g == f.home(0)) {
						t.Fatalf("report blames group %d with %v; only group %d failed", g, gerr, f.home(0))
					}
				}
			},
		},
		{
			name: "partial merges what answered and names the straggler",
			arm: func(t *testing.T, f *fanoutFleet) {
				f.group(f.home(0), func(m *faultMember) { m.err = errDown })
			},
			opts: BatchOptions{Partial: true, Trace: true},
			check: func(t *testing.T, f *fanoutFleet, res [][]Neighbor, rep BatchReport, err error) {
				dead := f.home(0)
				if err != nil {
					t.Fatalf("partial fan-out failed: %v", err)
				}
				if s := rep.Stragglers(); rep.Complete() || len(s) != 1 || s[0] != dead {
					t.Fatalf("stragglers = %v, want [%d]", s, dead)
				}
				f.requireSelfMatches(t, res, dead)
				tried := 0
				for _, a := range rep.Attempts {
					if a.Group == dead {
						tried++
						if a.Won {
							t.Fatal("dead group recorded a winning attempt")
						}
					}
				}
				if tried != fanoutReplicas {
					t.Fatalf("dead group tried %d replicas, want every one of %d before giving up", tried, fanoutReplicas)
				}
			},
		},
		{
			name: "per-node timeout cuts off a stalled group",
			arm: func(t *testing.T, f *fanoutFleet) {
				f.group(f.home(0), func(m *faultMember) { m.before = time.Hour })
			},
			opts: BatchOptions{PerNodeTimeout: 30 * time.Millisecond, Partial: true},
			check: func(t *testing.T, f *fanoutFleet, res [][]Neighbor, rep BatchReport, err error) {
				stalled := f.home(0)
				if err != nil {
					t.Fatal(err)
				}
				if s := rep.Stragglers(); len(s) != 1 || s[0] != stalled {
					t.Fatalf("stragglers = %v, want [%d]", s, stalled)
				}
				if !errors.Is(rep.Errs[stalled], context.DeadlineExceeded) {
					t.Fatalf("straggler error = %v, want DeadlineExceeded", rep.Errs[stalled])
				}
				f.requireSelfMatches(t, res, stalled)
			},
		},
		{
			// Replica 0 of every group computes at once but delivers long
			// after the hedge fires. Preference rotates per contacted group,
			// so some group prefers it, is hedged, and leaves it a late loser
			// whose answer nobody reads.
			name: "hedged-out loser is left behind",
			arm: func(t *testing.T, f *fanoutFleet) {
				for g := 0; g < fanoutGroups; g++ {
					f.members[g*fanoutReplicas].after = 60 * time.Millisecond
				}
			},
			opts: BatchOptions{Hedge: time.Millisecond, Trace: true},
			check: func(t *testing.T, f *fanoutFleet, res [][]Neighbor, rep BatchReport, err error) {
				if err != nil || !rep.Complete() {
					t.Fatalf("hedged fan-out: err=%v report=%+v", err, rep)
				}
				if rep.HedgesWon() == 0 {
					t.Fatal("no hedge won its group; the case lost its late loser")
				}
				f.requireSelfMatches(t, res, -1)
			},
		},
		{
			// Hedge well inside the caller's deadline so both replicas are in
			// flight — computed, sleeping — when the caller gives up.
			name: "caller deadline abandons in-flight attempts",
			arm: func(t *testing.T, f *fanoutFleet) {
				for _, m := range f.members {
					m.after = 50 * time.Millisecond
				}
			},
			opts:    BatchOptions{Hedge: time.Millisecond},
			timeout: 5 * time.Millisecond,
			check: func(t *testing.T, f *fanoutFleet, res [][]Neighbor, rep BatchReport, err error) {
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("search returned %v, want deadline exceeded", err)
				}
			},
		},
	}
	for _, placement := range []Placement{PlacementScatter, PlacementPartitioned} {
		for _, tc := range cases {
			t.Run(placement.String()+"/"+tc.name, func(t *testing.T) {
				f := newFanoutFleet(t, placement)
				if tc.arm != nil {
					tc.arm(t, f)
				}
				ctx := bg
				if tc.timeout > 0 {
					var cancel context.CancelFunc
					ctx, cancel = context.WithTimeout(bg, tc.timeout)
					defer cancel()
				}
				res, rep, err := f.c.Search(ctx, f.qs, node.SearchParams{}, tc.opts)
				tc.check(t, f, res, rep, err)
				served := 0
				for i, m := range f.members {
					m.mu.Lock() // a canceled straggler may still be arriving
					for _, b := range m.served {
						served++
						if !reflect.DeepEqual(b.qs, b.copy) {
							t.Errorf("member %d's sub-batch was rewritten after it was handed over", i)
						}
					}
					m.mu.Unlock()
				}
				if served == 0 {
					t.Fatal("no member served a search")
				}
			})
		}
	}
}

// TestScatterPlanHasNoRefs: a scatter plan sends every group the caller's
// batch itself and builds no probe refs, so group g's answer i is query
// i's; a routed plan in which every query probes every group (a radius
// past π/2 degenerates every probe set) takes the same form, and a routed
// plan that prunes keeps its refs. Under trace, the all-probe routed search
// reports every (query, group) pair routed and none pruned.
func TestScatterPlanHasNoRefs(t *testing.T) {
	qs := testDocs(12, 5)
	router := testRouter(t, RouterConfig{Groups: fanoutGroups})
	for _, tc := range []struct {
		name   string
		router *Router
		radius float64
	}{
		{"scatter", nil, 0},
		{"routed, every group probed", router, 1.6},
	} {
		groups, refs := (&Cluster{groups: fanoutGroups, router: tc.router}).plan(qs, tc.radius)
		if refs != nil {
			t.Fatalf("%s: plan built %d refs", tc.name, len(refs))
		}
		for g, gp := range groups {
			if len(gp.sub) != len(qs) || &gp.sub[0] != &qs[0] {
				t.Fatalf("%s: group %d is sent a %d-query copy, not the caller's batch", tc.name, g, len(gp.sub))
			}
		}
	}
	if _, refs := (&Cluster{groups: fanoutGroups, router: router}).plan(qs, 0); len(refs) == 0 || len(refs) == len(qs)*fanoutGroups {
		t.Fatalf("a pruning routed plan holds %d refs for %d queries × %d groups", len(refs), len(qs), fanoutGroups)
	}

	f := newFanoutFleet(t, PlacementPartitioned)
	res, rep, err := f.c.Search(bg, f.qs, node.SearchParams{Radius: 1.6}, BatchOptions{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	f.requireSelfMatches(t, res, -1)
	if pairs := len(f.qs) * fanoutGroups; rep.RoutedGroups != pairs || rep.PrunedGroups != 0 {
		t.Fatalf("an all-probe routed search reports %d routed and %d pruned, want %d and 0", rep.RoutedGroups, rep.PrunedGroups, pairs)
	}
}

// stuckSearch never answers a search: it keeps the ctx it was handed and
// blocks until that ctx is done.
type stuckSearch struct {
	transport.NodeClient

	mu   sync.Mutex
	ctxs []context.Context
}

func (m *stuckSearch) Search(ctx context.Context, qs []sparse.Vector, p node.SearchParams) ([][]core.Neighbor, error) {
	m.mu.Lock()
	m.ctxs = append(m.ctxs, ctx)
	m.mu.Unlock()
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestHedgedOutLoserIsCanceled: replica 0 of every group never answers,
// so each group that prefers it is rescued by a hedge at 1 ms, and by the
// time Search returns the context every such loser was handed is
// canceled — a hedged-out attempt is reaped, not left to run. It runs
// under scatter and partitioned placement over eight groups, and over one
// group, where no sibling group's failure or search-wide cancel can do
// the reaping. Two searches each, so the rotating preference makes every
// group prefer the stuck replica once.
func TestHedgedOutLoserIsCanceled(t *testing.T) {
	for _, tc := range []struct {
		groups    int
		placement Placement
	}{{fanoutGroups, PlacementScatter}, {fanoutGroups, PlacementPartitioned}, {1, PlacementScatter}} {
		t.Run(fmt.Sprintf("%s/%d-group", tc.placement, tc.groups), func(t *testing.T) {
			clients := make([]transport.NodeClient, tc.groups*fanoutReplicas)
			var stuck []*stuckSearch
			for i := range clients {
				clients[i] = transport.NewLocal(realNode(t, 200))
				if i%fanoutReplicas == 0 {
					s := &stuckSearch{NodeClient: clients[i]}
					stuck, clients[i] = append(stuck, s), s
				}
			}
			opts := Options{WindowM: tc.groups, Replicas: fanoutReplicas, Placement: tc.placement}
			if tc.placement == PlacementPartitioned {
				opts.Router = testRouter(t, RouterConfig{Groups: tc.groups})
			}
			c, err := NewWithOptions(bg, clients, opts)
			if err != nil {
				t.Fatal(err)
			}
			docs := testDocs(160, 73)
			if _, err := c.Insert(bg, docs); err != nil {
				t.Fatal(err)
			}
			hedgesWon, losers := 0, 0
			seen := make([]int, len(stuck)) // per stuck replica: the attempts already checked
			for range 2 {
				_, rep, err := c.Search(bg, docs[:fanoutQueries], node.SearchParams{}, BatchOptions{Hedge: time.Millisecond, Trace: true})
				if err != nil || !rep.Complete() {
					t.Fatalf("hedged search: err=%v report=%+v", err, rep)
				}
				hedgesWon += rep.HedgesWon()
				for g, s := range stuck {
					s.mu.Lock()
					for _, ctx := range s.ctxs[seen[g]:] {
						seen[g]++
						losers++
						if ctx.Err() == nil {
							t.Errorf("group %d's hedged-out attempt was not canceled when Search returned", g)
						}
					}
					s.mu.Unlock()
				}
			}
			if hedgesWon == 0 || losers == 0 {
				t.Fatalf("%d hedges won and %d stuck attempts seen; the stuck replica never lost a race", hedgesWon, losers)
			}
		})
	}
}
