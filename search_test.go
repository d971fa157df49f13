package plsh

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"slices"
	"testing"
	"time"

	"plsh/internal/core"
	"plsh/internal/lshhash"
	"plsh/internal/node"
	"plsh/internal/oracle"
	"plsh/internal/transport"
)

// newOracle mirrors docs, as rows 0 to len(docs)-1, for the sketch oracle
// of an index configured by cfg: the same hyperplanes, so the same
// sketches.
func newOracle(t *testing.T, cfg Config, docs []Vector) *oracle.Oracle {
	t.Helper()
	cfg, err := cfg.normalize()
	if err != nil {
		t.Fatal(err)
	}
	fam, err := lshhash.NewFamily(lshhash.Params{Dim: cfg.Dim, K: cfg.K, M: cfg.M, Seed: cfg.Seed})
	if err != nil {
		t.Fatal(err)
	}
	return oracle.New(fam, docs...)
}

// wantMatches is o's answer to q as Search gives it: row i as ids[i] (as i
// itself when ids is nil, a Store's IDs), in (distance, ID) order, cut at k
// when k > 0.
func wantMatches(o *oracle.Oracle, ids []uint64, q Vector, radius float64, k int) []Match {
	ans, _ := o.Answers(q, radius, 0)
	ms := make([]Match, len(ans))
	for i, a := range ans {
		ms[i] = Match{ID: uint64(a.ID), Dist: a.Dist}
		if ids != nil {
			ms[i].ID = ids[a.ID]
		}
	}
	sortMatches(ms)
	if k > 0 && k < len(ms) {
		ms = ms[:k]
	}
	return ms
}

// nonSelf counts the matches other than the query document, self.
func nonSelf(ms []Match, self uint64) int {
	n := 0
	for _, m := range ms {
		if m.ID != self {
			n++
		}
	}
	return n
}

// requireNonSelfFloor fails t when its comparisons saw fewer than floor
// answers other than the query: a comparison of self-matches alone pins
// almost nothing.
func requireNonSelfFloor(t *testing.T, n, floor int) {
	t.Helper()
	t.Logf("%d answers other than the query", n)
	if n < floor {
		t.Fatalf("%d answers other than the query; the test wants at least %d", n, floor)
	}
}

// sortMatches puts ms in Search's order, ascending by (distance, ID).
func sortMatches(ms []Match) {
	slices.SortFunc(ms, func(a, b Match) int {
		return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.ID, b.ID))
	})
}

func requireMatchesEqual(t *testing.T, label string, got, want []Match) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches, oracle has %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID {
			t.Fatalf("%s entry %d: doc %d, oracle says %d", label, i, got[i].ID, want[i].ID)
		}
		if d := got[i].Dist - want[i].Dist; d > 1e-9 || d < -1e-9 {
			t.Fatalf("%s entry %d: dist %v, oracle %v", label, i, got[i].Dist, want[i].Dist)
		}
	}
}

// TestStoreSearchMatchesOracle: on a Store at the suite's geometry (K 16,
// M 16), Search with WithRadius and WithK must equal the sketch oracle for
// every row as the query: the exact R-near set, and its exact top k. That
// includes request radii other than the one the Store was constructed
// with, since every radius is request-scoped.
func TestStoreSearchMatchesOracle(t *testing.T) {
	cfg := Config{Dim: 2000, K: 16, M: 16, Radius: 0.8, Capacity: 500}
	s, err := NewStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	docs := SyntheticTweets(250, 2000, 31)
	if _, err := s.Insert(bg, docs); err != nil {
		t.Fatal(err)
	}
	o := newOracle(t, cfg, docs)
	answers := 0
	for _, radius := range []float64{0.8, 1.0, 1.1, 1.15} {
		var opts []SearchOption
		if radius != cfg.Radius {
			opts = []SearchOption{WithRadius(radius)}
		}
		for qi, q := range docs {
			for _, k := range []int{0, 1, 5, 25} {
				kopts := opts
				if k > 0 {
					kopts = append(opts[:len(opts):len(opts)], WithK(k))
				}
				got, err := s.Search(bg, q, kopts...)
				if err != nil {
					t.Fatal(err)
				}
				requireMatchesEqual(t, fmt.Sprintf("radius %v k=%d query %d", radius, k, qi), got.Matches,
					wantMatches(o, nil, q, radius, k))
				if k == 0 {
					answers += nonSelf(got.Matches, uint64(qi))
				}
			}
		}
	}
	requireNonSelfFloor(t, answers, 200)
}

// searchTestAddrs serves n fresh TCP nodes with identical seeded hash
// families and returns their addresses.
func searchTestAddrs(t *testing.T, n, capacity int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		nd, err := node.Open(bg, node.Config{
			Params:   lshhash.Params{Dim: 2000, K: 16, M: 16, Seed: 42},
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
		ctx, cancel := context.WithCancel(context.Background())
		t.Cleanup(cancel)
		go transport.Serve(ctx, l, transport.NewLocal(nd), nil)
		addrs[i] = l.Addr().String()
	}
	return addrs
}

// TestClusterSearchMatchesOracle: a 4-node cluster at the suite's geometry
// — in process, and over real TCP, where the request-scoped parameters
// cross the versioned opSearch frame — answers Search with WithRadius and
// WithK exactly as the sketch oracle does over the global ID space, for
// every document as the query: the coordinator's sort and cut of the
// gathered per-node lists reconstruct the exact cluster-wide top k.
func TestClusterSearchMatchesOracle(t *testing.T) {
	const radius = 1.1
	cfg := Config{Dim: 2000, K: 16, M: 16, Radius: radius, Capacity: 100, Seed: 42}
	for _, tr := range []struct {
		name string
		open func() (*Cluster, error)
	}{
		{"in-process", func() (*Cluster, error) { return NewCluster(4, 2, cfg) }},
		{"tcp", func() (*Cluster, error) { return DialCluster(bg, searchTestAddrs(t, 4, cfg.Capacity), 2) }},
	} {
		t.Run(tr.name, func(t *testing.T) {
			cl, err := tr.open()
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			docs := SyntheticTweets(250, 2000, 33)
			ids, err := cl.Insert(bg, docs)
			if err != nil {
				t.Fatal(err)
			}
			o := newOracle(t, cfg, docs)
			answers := 0
			for qi, q := range docs {
				for _, k := range []int{0, 1, 7, 30} {
					opts := []SearchOption{WithRadius(radius)}
					if k > 0 {
						opts = append(opts, WithK(k))
					}
					got, err := cl.Search(bg, q, opts...)
					if err != nil {
						t.Fatal(err)
					}
					requireMatchesEqual(t, fmt.Sprintf("k=%d query %d", k, qi), got.Matches,
						wantMatches(o, ids, q, radius, k))
					if k == 0 {
						answers += nonSelf(got.Matches, ids[qi])
					}
				}
			}
			requireNonSelfFloor(t, answers, 40)

			// A "give me everything" k over a batch: the coordinator sizes
			// its answers from what the groups returned, never from
			// queries × k (two queries × MaxInt wraps negative).
			res, _, err := cl.SearchBatch(bg, docs, WithRadius(radius), WithK(math.MaxInt))
			if err != nil {
				t.Fatal(err)
			}
			for qi, q := range docs {
				requireMatchesEqual(t, fmt.Sprintf("k=MaxInt batch query %d", qi), res[qi].Matches,
					wantMatches(o, ids, q, radius, 0))
			}
		})
	}
}

// TestSearchOptionValidation: invalid request-scoped values surface as
// errors from the call, not panics or silent clamps.
func TestSearchOptionValidation(t *testing.T) {
	s, err := NewStore(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	docs := SyntheticTweets(10, 2000, 3)
	if _, err := s.Insert(bg, docs); err != nil {
		t.Fatal(err)
	}
	for name, opt := range map[string]SearchOption{
		"zero radius":       WithRadius(0),
		"negative radius":   WithRadius(-1),
		"NaN radius":        WithRadius(math.NaN()),
		"+Inf radius":       WithRadius(math.Inf(1)),
		"zero k":            WithK(0),
		"negative k":        WithK(-3),
		"zero node timeout": WithNodeTimeout(0),
		"zero hedge":        WithHedge(0),
		"negative hedge":    WithHedge(-time.Second),
	} {
		if _, err := s.Search(bg, docs[0], opt); err == nil {
			t.Errorf("%s accepted by Search", name)
		}
		if _, _, err := s.SearchBatch(bg, docs[:2], opt); err == nil {
			t.Errorf("%s accepted by SearchBatch", name)
		}
	}
}

// TestStoreSearchBatchReport: a Store reports itself as the single node
// 0 with a measured wall time, the uniform Report shape.
func TestStoreSearchBatchReport(t *testing.T) {
	s, err := NewStore(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	docs := SyntheticTweets(50, 2000, 3)
	if _, err := s.Insert(bg, docs); err != nil {
		t.Fatal(err)
	}
	res, report, err := s.SearchBatch(bg, docs[:8], WithNodeTimeout(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 8 {
		t.Fatalf("%d results for 8 queries", len(res))
	}
	if len(report.Times) != 1 || len(report.Errs) != 1 || !report.Complete() {
		t.Fatalf("store report: %+v", report)
	}
	if report.Times[0] <= 0 {
		t.Fatal("store report carries no wall time")
	}
	// A canceled context fails the batch and blames the context.
	canceled, cancel := context.WithCancel(bg)
	cancel()
	if _, _, err := s.SearchBatch(canceled, docs[:2]); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled SearchBatch: %v", err)
	}
}

// TestClusterDoc: the cluster can hand back any stored vector by global
// ID — over TCP, via the opDoc wire op — with the holding node's
// authoritative known/unknown answer.
func TestClusterDoc(t *testing.T) {
	cl, err := DialCluster(bg, searchTestAddrs(t, 3, 200), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	docs := SyntheticTweets(120, 2000, 43)
	ids, err := cl.Insert(bg, docs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(docs); i += 11 {
		v, known, err := cl.Doc(bg, ids[i])
		if err != nil {
			t.Fatal(err)
		}
		if !known {
			t.Fatalf("doc %d unknown to its node", i)
		}
		if v.NNZ() != docs[i].NNZ() {
			t.Fatalf("doc %d came back with %d terms, want %d", i, v.NNZ(), docs[i].NNZ())
		}
		for j := range v.Idx {
			if v.Idx[j] != docs[i].Idx[j] || v.Val[j] != docs[i].Val[j] {
				t.Fatalf("doc %d content mismatch", i)
			}
		}
	}
	// Unknown local id and nonexistent node are both simply unknown.
	if _, known, err := cl.Doc(bg, GlobalID(0, 5000)); err != nil || known {
		t.Fatalf("unknown local id: known=%v err=%v", known, err)
	}
	if _, known, err := cl.Doc(bg, GlobalID(99, 0)); err != nil || known {
		t.Fatalf("nonexistent node: known=%v err=%v", known, err)
	}
}
