package cluster

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"plsh/internal/node"
	"plsh/internal/sparse"
	"plsh/internal/transport"
)

var errInjected = errors.New("injected member failure")

// flakyMember is a faultMember whose delivery delay and post-compute
// failure are drawn afresh from rng on every search.
func flakyMember(inner transport.NodeClient, rng *rand.Rand) *faultMember {
	var mu sync.Mutex
	return &faultMember{NodeClient: inner, roll: func() (time.Duration, error) {
		mu.Lock()
		defer mu.Unlock()
		delay := time.Duration(rng.Intn(2000)) * time.Microsecond
		if rng.Intn(4) == 0 {
			return delay, errInjected
		}
		return delay, nil
	}}
}

// TestSearchInterleavingsAnswerLikeTheUnfaultedFleet drives the search
// loop through randomized interleavings — winner-first, loser-first,
// all-fail, caller-cancel, per-node timeout — across 3 groups of 3
// replicas, so one loop sees one group's failover, another's hedge and a
// third's late loser arrive in any order: whichever members won, and
// whatever their losers were doing when they did, a search that reports
// no error and a complete report answers exactly what the same fleet
// answers with no faults injected. Run under -race this also races late
// losers' answers against the merge that reads the winners'.
func TestSearchInterleavingsAnswerLikeTheUnfaultedFleet(t *testing.T) {
	const groups, replicas = 3, 3
	plain := make([]transport.NodeClient, groups*replicas)
	flaky := make([]transport.NodeClient, groups*replicas)
	rng := rand.New(rand.NewSource(1))
	for i := range plain {
		plain[i] = transport.NewLocal(realNode(t, 200))
		flaky[i] = flakyMember(plain[i], rand.New(rand.NewSource(int64(i+100))))
	}
	layout := Options{WindowM: groups, Replicas: replicas}
	c, err := NewWithOptions(bg, flaky, layout)
	if err != nil {
		t.Fatal(err)
	}
	vs := testDocs(90, 11)
	if _, err := c.Insert(bg, vs); err != nil {
		t.Fatal(err)
	}
	unfaulted, err := NewWithOptions(bg, plain, layout)
	if err != nil {
		t.Fatal(err)
	}
	// Scatter fills the window's groups with contiguous thirds of the
	// corpus, so take one query from each: every group holds an answer.
	qs := []sparse.Vector{vs[0], vs[30], vs[60]}
	want, _, err := unfaulted.Search(bg, qs, node.SearchParams{}, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for g := range groups {
		if !slices.ContainsFunc(want, func(ns []Neighbor) bool {
			return slices.ContainsFunc(ns, func(nb Neighbor) bool { return nb.Node() == g })
		}) {
			t.Fatalf("no query finds a document of group %d; the fleet does not exercise it", g)
		}
	}
	answered := 0
	for i := 0; i < 150; i++ {
		opts := BatchOptions{Partial: rng.Intn(2) == 0}
		if rng.Intn(2) == 0 {
			opts.Hedge = time.Duration(rng.Intn(1500)) * time.Microsecond
		}
		if rng.Intn(4) == 0 {
			opts.PerNodeTimeout = time.Duration(500+rng.Intn(1500)) * time.Microsecond
		}
		ctx := bg
		if rng.Intn(3) == 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(bg, time.Duration(rng.Intn(2500))*time.Microsecond)
			defer cancel()
		}
		nq := 1 + rng.Intn(3)
		res, rep, err := c.Search(ctx, qs[:nq], node.SearchParams{}, opts)
		if err != nil || !rep.Complete() {
			continue
		}
		answered++
		if !reflect.DeepEqual(res, want[:nq]) {
			t.Fatalf("search %d (%+v) answered %v, the un-faulted fleet answers %v", i, opts, res, want[:nq])
		}
	}
	if answered == 0 {
		t.Fatal("no search survived its faults; the driver checks nothing")
	}
	if st := c.CoordStats(); st.Failovers == 0 || st.HedgesWon == 0 {
		t.Fatalf("the driver never failed over or never won a hedge: %+v", st)
	}
}
