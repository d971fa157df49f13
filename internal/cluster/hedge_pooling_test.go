package cluster

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"plsh/internal/core"
	"plsh/internal/lshhash"
	"plsh/internal/node"
	"plsh/internal/transport"
)

// poolNode builds a real in-process node so the tests can watch its
// batch pool through OutstandingBatches.
func poolNode(t *testing.T, capacity int) *node.Node {
	t.Helper()
	n, err := node.New(node.Config{
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

// waitOutstandingZero polls until every node reports zero checked-out
// batch buffers — the release-exactly-once invariant after all in-flight
// searches (including async loser drains) have settled. A strand keeps a
// count positive forever; a double release drives one negative; either
// way the poll times out and fails with the stuck value.
func waitOutstandingZero(t *testing.T, nodes ...*node.Node) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		bad, got := -1, int64(0)
		for i, n := range nodes {
			if o := n.OutstandingBatches(); o != 0 {
				bad, got = i, o
			}
		}
		if bad < 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("node %d settled at %d outstanding pooled batches, want 0 (positive = stranded, negative = double-released)", bad, got)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

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

// TestSearchGroupInterleavingsReleaseAllBatches drives the failover/hedge
// state machine through randomized interleavings — winner-first,
// loser-first, all-fail, caller-cancel, per-node timeout — across a
// 3-replica group and asserts the release-exactly-once invariant: after
// everything settles, every node's outstanding pooled-batch count is
// exactly zero. Run under -race this also exercises the drain goroutine
// against concurrent searches.
func TestSearchGroupInterleavingsReleaseAllBatches(t *testing.T) {
	const replicas = 3
	nodes := make([]*node.Node, replicas)
	clients := make([]transport.NodeClient, replicas)
	rng := rand.New(rand.NewSource(1))
	for i := range nodes {
		nodes[i] = poolNode(t, 200)
		clients[i] = flakyMember(transport.NewLocal(nodes[i]), rand.New(rand.NewSource(int64(i+100))))
	}
	c, err := NewReplicated(bg, clients, 1, replicas)
	if err != nil {
		t.Fatal(err)
	}
	vs := testDocs(60, 11)
	if _, err := c.Insert(bg, vs); err != nil {
		t.Fatal(err)
	}
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
		res, _, err := c.Search(ctx, vs[:1+rng.Intn(3)], node.SearchParams{}, opts)
		if err == nil {
			c.ReleaseResults(res)
		}
	}
	waitOutstandingZero(t, nodes...)
}
