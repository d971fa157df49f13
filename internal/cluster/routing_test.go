package cluster

import (
	"context"
	"errors"
	"math"
	"testing"

	"plsh/internal/israce"
	"plsh/internal/lshhash"
	"plsh/internal/node"
)

func testRouter(t *testing.T, cfg RouterConfig) *Router {
	t.Helper()
	fam, err := lshhash.NewFamily(lshhash.Params{Dim: 2000, K: 4, M: 16, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(fam, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRouterConfigValidation(t *testing.T) {
	fam, err := lshhash.NewFamily(lshhash.Params{Dim: 100, K: 4, M: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRouter(nil, RouterConfig{Groups: 4}); err == nil {
		t.Error("nil family accepted")
	}
	if _, err := NewRouter(fam, RouterConfig{Groups: 0}); err == nil {
		t.Error("zero groups accepted")
	}
	if _, err := NewRouter(fam, RouterConfig{Groups: 1<<maxRouteBits + 1}); err == nil {
		t.Error("257 groups accepted; at most 256 own a signature cell")
	}
	if _, err := NewRouter(fam, RouterConfig{Groups: 4, Recall: 1.5}); err == nil {
		t.Error("recall > 1 accepted")
	}
	if _, err := NewRouter(fam, RouterConfig{Groups: 4, Radius: -1}); err == nil {
		t.Error("negative radius accepted")
	}
	if _, err := NewRouter(fam, RouterConfig{Groups: 4, Recall: math.NaN()}); err == nil {
		t.Error("NaN recall accepted")
	}
	if _, err := NewRouter(fam, RouterConfig{Groups: 4, Radius: math.NaN()}); err == nil {
		t.Error("NaN radius accepted")
	}
	if _, err := NewRouter(fam, RouterConfig{Groups: 4, Radius: math.Inf(1)}); err == nil {
		t.Error("+Inf radius accepted")
	}
	r, err := NewRouter(fam, RouterConfig{Groups: 16})
	if err != nil {
		t.Fatal(err)
	}
	if r.bits != 4 {
		t.Errorf("default bits for 16 groups = %d, want 4", r.bits)
	}
	if r.Recall() != 0.9 {
		t.Errorf("default recall = %v, want 0.9", r.Recall())
	}
}

// GroupFor and Probe run on every insert and every routed query, and their
// scratch is a stack value: once the family has drawn the queries' rows,
// neither allocates, at any group count.
func TestRouterDoesNotAllocate(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	docs := testDocs(50, 9)
	for _, groups := range []int{2, 4, 16, 256} {
		r := testRouter(t, RouterConfig{Groups: groups})
		dst := make([]int, 0, groups)
		for _, d := range docs { // draw every hyperplane row the docs use
			r.GroupFor(d)
			r.Probe(d, 0, dst)
		}
		allocs := testing.AllocsPerRun(20, func() {
			for _, d := range docs {
				r.GroupFor(d)
				dst, _ = r.Probe(d, 0, dst[:0])
			}
		})
		if allocs != 0 {
			t.Errorf("%d groups: GroupFor+Probe allocate %.1f per %d docs, want 0", groups, allocs, len(docs))
		}
	}
}

// Placement must be a pure function of (document, family seed): two
// independently built routers agree on every document, so mirrored
// coordinators and WAL-restarted fleets agree with zero coordination.
func TestRouterDeterministicAcrossInstances(t *testing.T) {
	a := testRouter(t, RouterConfig{Groups: 8})
	b := testRouter(t, RouterConfig{Groups: 8})
	docs := testDocs(200, 7)
	for i, d := range docs {
		ga, gb := a.GroupFor(d), b.GroupFor(d)
		if ga != gb {
			t.Fatalf("doc %d: router A places on %d, router B on %d", i, ga, gb)
		}
		if ga < 0 || ga >= 8 {
			t.Fatalf("doc %d placed on group %d of 8", i, ga)
		}
		pa, oka := a.Probe(d, 0, nil)
		pb, okb := b.Probe(d, 0, nil)
		if oka != okb {
			t.Fatalf("doc %d: probe ok %v vs %v", i, oka, okb)
		}
		if len(pa) != len(pb) {
			t.Fatalf("doc %d: probe sets %v vs %v", i, pa, pb)
		}
		for j := range pa {
			if pa[j] != pb[j] {
				t.Fatalf("doc %d: probe sets %v vs %v", i, pa, pb)
			}
		}
	}
}

// The balanced range reduction must leave no group idle: with B =
// ceil(log2 G) every group owns at least one of the 2^B signature cells,
// up to the 2^maxRouteBits groups NewRouter accepts.
func TestRouterSignatureMapCoversEveryGroup(t *testing.T) {
	for _, groups := range []int{2, 3, 4, 6, 8, 16, 255, 1 << maxRouteBits} {
		r := testRouter(t, RouterConfig{Groups: groups})
		seen := make([]bool, groups)
		for sig := uint32(0); sig < 1<<r.bits; sig++ {
			g := r.groupOf(sig)
			if g < 0 || g >= groups {
				t.Fatalf("groups=%d: signature %d maps to group %d", groups, sig, g)
			}
			seen[g] = true
		}
		for g, ok := range seen {
			if !ok {
				t.Errorf("groups=%d: group %d owns no signature cell", groups, g)
			}
		}
	}
}

// A query's probe set must always include the group its own signature
// maps to — the zero-flip pattern is enumerated first — so a search for
// an exact duplicate is never routed away from the copy.
func TestProbeContainsOwnGroup(t *testing.T) {
	r := testRouter(t, RouterConfig{Groups: 16})
	docs := testDocs(200, 11)
	fallbacks := 0
	for i, d := range docs {
		probes, ok := r.Probe(d, 0.9, nil)
		if !ok {
			fallbacks++
			continue
		}
		own := r.GroupFor(d)
		found := false
		for _, g := range probes {
			if g == own {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("doc %d: probe set %v misses its own group %d", i, probes, own)
		}
		if len(probes) > 8 {
			t.Fatalf("doc %d: %d probes exceed half of 16 groups", i, len(probes))
		}
	}
	if fallbacks == len(docs) {
		t.Fatal("every query fell back to scatter; routing never engaged")
	}
}

// Raising the recall target only extends the enumeration, so a lower
// target's probe set is a prefix of a higher target's — the monotonicity
// the recall guarantee leans on.
func TestProbeSetMonotoneInRecall(t *testing.T) {
	lo := testRouter(t, RouterConfig{Groups: 16, Recall: 0.5})
	hi := testRouter(t, RouterConfig{Groups: 16, Recall: 0.95})
	docs := testDocs(100, 13)
	for i, d := range docs {
		pl, okl := lo.Probe(d, 0.9, nil)
		ph, okh := hi.Probe(d, 0.9, nil)
		if !okl || !okh {
			continue // either side degenerated; nothing to compare
		}
		if len(pl) > len(ph) {
			t.Fatalf("doc %d: recall 0.5 probes %v, recall 0.95 only %v", i, pl, ph)
		}
		for j := range pl {
			if pl[j] != ph[j] {
				t.Fatalf("doc %d: lower-recall set %v is not a prefix of %v", i, pl, ph)
			}
		}
	}
}

// Radii at or beyond π/2 cannot discriminate (cot ≤ 0: a far document
// flips bits as often as a near one) and must degrade to scatter.
func TestProbeDegeneratesToScatter(t *testing.T) {
	r := testRouter(t, RouterConfig{Groups: 8})
	d := testDocs(1, 17)[0]
	for _, radius := range []float64{math.Pi / 2, 1.6, 3.0} {
		if _, ok := r.Probe(d, radius, nil); ok {
			t.Errorf("radius %v: expected scatter fallback", radius)
		}
	}
	// An unreachable recall target within one pattern must also fall back
	// rather than silently under-probing.
	one := testRouter(t, RouterConfig{Groups: 8, Recall: 0.999999})
	one.maxPatterns = 1
	if _, ok := one.Probe(d, 0.9, nil); ok {
		t.Error("recall target unreachable within budget: expected scatter fallback")
	}
}

// Partitioned insert must agree with the router on every placement, and
// a full routed group must surface *InsertError wrapping node.ErrFull —
// never spill onto another group, which would break the routing
// invariant.
func TestPartitionedInsertPlacesByRouterAndFailsFull(t *testing.T) {
	ctx := context.Background()
	nodes := testNodes(t, 8, 100)
	r := testRouter(t, RouterConfig{Groups: 8})
	c, err := NewWithOptions(ctx, nodes, Options{Placement: PlacementPartitioned, Router: r})
	if err != nil {
		t.Fatal(err)
	}
	if c.Placement() != PlacementPartitioned {
		t.Fatalf("placement = %v", c.Placement())
	}
	docs := testDocs(300, 19)
	ids, err := c.Insert(ctx, docs)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		g, _ := SplitGlobalID(id)
		if want := r.GroupFor(docs[i]); g != want {
			t.Fatalf("doc %d placed on group %d, router says %d", i, g, want)
		}
	}
	// Tiny per-group capacity: some routed group must fill and the insert
	// must fail loudly with the partial-placement contract intact.
	small := testNodes(t, 8, 10)
	cs, err := NewWithOptions(ctx, small, Options{Placement: PlacementPartitioned, Router: r})
	if err != nil {
		t.Fatal(err)
	}
	_, err = cs.Insert(ctx, docs)
	if err == nil {
		t.Fatal("300 docs into 8 groups of 10: expected a full group")
	}
	var ie *InsertError
	if !errors.As(err, &ie) {
		t.Fatalf("want *InsertError, got %T: %v", err, err)
	}
	if !errors.Is(err, node.ErrFull) {
		t.Fatalf("want ErrFull in chain, got: %v", err)
	}
}

// Partitioned construction is validated: a router is required and its
// group count must match the layout.
func TestPartitionedOptionsValidation(t *testing.T) {
	ctx := context.Background()
	nodes := testNodes(t, 4, 100)
	if _, err := NewWithOptions(ctx, nodes, Options{Placement: PlacementPartitioned}); err == nil {
		t.Error("partitioned without router accepted")
	}
	r := testRouter(t, RouterConfig{Groups: 8})
	if _, err := NewWithOptions(ctx, nodes, Options{Placement: PlacementPartitioned, Router: r}); err == nil {
		t.Error("router for 8 groups accepted on a 4-group cluster")
	}
	if _, err := NewWithOptions(ctx, nodes, Options{Placement: Placement(9)}); err == nil {
		t.Error("unknown placement accepted")
	}
}
