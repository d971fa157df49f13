package cluster

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"plsh/internal/node"
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

// TestSearchGroupInterleavingsAnswerLikeTheUnfaultedGroup drives the
// failover/hedge state machine through randomized interleavings —
// winner-first, loser-first, all-fail, caller-cancel, per-node timeout —
// across a 3-replica group: whichever member won, and whatever its losers
// were doing when it did, a search that reports no error and a complete
// report answers exactly what the same group answers with no faults
// injected. Run under -race this also races late losers' answers against
// the merge that reads the winner's.
func TestSearchGroupInterleavingsAnswerLikeTheUnfaultedGroup(t *testing.T) {
	const replicas = 3
	plain := make([]transport.NodeClient, replicas)
	flaky := make([]transport.NodeClient, replicas)
	rng := rand.New(rand.NewSource(1))
	for i := range plain {
		plain[i] = transport.NewLocal(realNode(t, 200))
		flaky[i] = flakyMember(plain[i], rand.New(rand.NewSource(int64(i+100))))
	}
	layout := Options{WindowM: 1, Replicas: replicas}
	c, err := NewWithOptions(bg, flaky, layout)
	if err != nil {
		t.Fatal(err)
	}
	vs := testDocs(60, 11)
	if _, err := c.Insert(bg, vs); err != nil {
		t.Fatal(err)
	}
	unfaulted, err := NewWithOptions(bg, plain, layout)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := unfaulted.Search(bg, vs[:3], node.SearchParams{}, BatchOptions{})
	if err != nil {
		t.Fatal(err)
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
		res, rep, err := c.Search(ctx, vs[:nq], node.SearchParams{}, opts)
		if err != nil || !rep.Complete() {
			continue
		}
		answered++
		if !reflect.DeepEqual(res, want[:nq]) {
			t.Fatalf("search %d (%+v) answered %v, the un-faulted group answers %v", i, opts, res, want[:nq])
		}
	}
	if answered == 0 {
		t.Fatal("no search survived its faults; the driver checks nothing")
	}
}
