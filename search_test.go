package plsh

import (
	"cmp"
	"context"
	"errors"
	"math"
	"net"
	"slices"
	"testing"
	"time"

	"plsh/internal/core"
	"plsh/internal/lshhash"
	"plsh/internal/node"
	"plsh/internal/sparse"
	"plsh/internal/transport"
)

// oracleMatches is the exhaustive-scan reference for the unified Search
// surface: every document within radius, as Matches in canonical
// ascending (distance, global ID) order, bounded to k when k > 0. ids
// maps document position to its global ID (identity for a Store).
func oracleMatches(docs []Vector, ids []uint64, q Vector, radius float64, k int) []Match {
	thr := sparse.CosThreshold(radius)
	var in []Match
	for i, d := range docs {
		if dot := sparse.Dot(q, d); dot >= thr {
			in = append(in, Match{ID: ids[i], Dist: sparse.AngularDistance(dot)})
		}
	}
	sortMatches(in)
	if k > 0 && k < len(in) {
		in = in[:k]
	}
	return in
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

// TestStoreSearchMatchesOracle is half of the acceptance criterion:
// Search with WithRadius and WithK must equal the exhaustive-scan oracle
// on a Store — including a per-request radius wider than the one the
// Store was constructed with, which the frozen-config API could not
// answer at all. K=4 bits over M=16 → L=120 tables drives per-neighbor
// retrieval probability to ~1, and hashing is seeded, so the comparison
// is deterministic.
func TestStoreSearchMatchesOracle(t *testing.T) {
	// Construction radius 0.8 is NOT what most requests below use: every
	// radius is request-scoped.
	s, err := NewStore(Config{Dim: 2000, K: 4, M: 16, Radius: 0.8, Capacity: 500})
	if err != nil {
		t.Fatal(err)
	}
	docs := SyntheticTweets(250, 2000, 31)
	ids, err := s.Insert(bg, docs)
	if err != nil {
		t.Fatal(err)
	}
	for _, radius := range []float64{0.8, 1.0, 1.15} {
		var opts []SearchOption
		if radius != 0.8 {
			opts = []SearchOption{WithRadius(radius)}
		}
		for qi := 0; qi < len(docs); qi += 17 {
			q := docs[qi]
			got, err := s.Search(bg, q, opts...)
			if err != nil {
				t.Fatal(err)
			}
			requireMatchesEqual(t, "store r-near", got.Matches,
				oracleMatches(docs, ids, q, radius, 0))
			for _, k := range []int{1, 5} {
				bounded, err := s.Search(bg, q, append(opts[:len(opts):len(opts)], WithK(k))...)
				if err != nil {
					t.Fatal(err)
				}
				requireMatchesEqual(t, "store top-k", bounded.Matches,
					oracleMatches(docs, ids, q, radius, k))
			}
		}
	}
}

// searchTestAddrs serves n fresh TCP nodes with identical seeded hash
// families and returns their addresses.
func searchTestAddrs(t *testing.T, n, capacity int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
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
		ctx, cancel := context.WithCancel(context.Background())
		t.Cleanup(cancel)
		go transport.Serve(ctx, l, transport.NewLocal(nd), nil)
		addrs[i] = l.Addr().String()
	}
	return addrs
}

// TestClusterSearchMatchesOracle is the other half of the acceptance
// criterion: Search with WithRadius/WithK on a 4-node DialCluster (real
// TCP, so the request-scoped parameters cross the versioned opSearch
// frame) must equal the exhaustive-scan oracle over the global ID space.
func TestClusterSearchMatchesOracle(t *testing.T) {
	cl, err := DialCluster(bg, searchTestAddrs(t, 4, 100), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	docs := SyntheticTweets(250, 2000, 33)
	ids, err := cl.Insert(bg, docs)
	if err != nil {
		t.Fatal(err)
	}
	for qi := 0; qi < len(docs); qi += 19 {
		q := docs[qi]
		got, err := cl.Search(bg, q, WithRadius(1.1))
		if err != nil {
			t.Fatal(err)
		}
		requireMatchesEqual(t, "cluster r-near", got.Matches,
			oracleMatches(docs, ids, q, 1.1, 0))
		for _, k := range []int{1, 7, 30} {
			bounded, err := cl.Search(bg, q, WithRadius(1.1), WithK(k))
			if err != nil {
				t.Fatal(err)
			}
			requireMatchesEqual(t, "cluster top-k", bounded.Matches,
				oracleMatches(docs, ids, q, 1.1, k))
		}
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
