package core

import (
	"slices"
	"testing"

	"plsh/internal/bitvec"
	"plsh/internal/corpus"
	"plsh/internal/lshhash"
	"plsh/internal/oracle"
	"plsh/internal/sparse"
)

// queryFixture builds a small corpus, index, and ground truth.
type queryFixture struct {
	fam     *lshhash.Family
	mat     *sparse.Matrix
	st      *Static
	queries []sparse.Vector
}

func newQueryFixture(t *testing.T, nDocs, nQueries int) *queryFixture {
	t.Helper()
	// K=8, M=8 → L=28 tables; small enough for exhaustive verification,
	// selective enough to have structure.
	p := lshhash.Params{Dim: 2000, K: 8, M: 8, Seed: 42}
	fam, err := lshhash.NewFamily(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := corpus.Twitter(nDocs, p.Dim, 7)
	cfg.NearDupRate = 0.25 // plant plenty of true neighbors
	c := corpus.Generate(cfg)
	st, err := Build(fam, c.Mat, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	return &queryFixture{fam: fam, mat: c.Mat, st: st, queries: c.SampleQueries(nQueries, 99)}
}

// searchOne answers q with the engine's configured defaults.
func searchOne(e *Engine, q sparse.Vector) []Neighbor {
	res, _ := e.SearchAppend(nil, q, SearchParams{})
	return res
}

// oracle mirrors the fixture's rows for the sketch oracle.
func (f *queryFixture) oracle() *oracle.Oracle {
	o := oracle.New(f.fam)
	for i := 0; i < f.mat.Rows(); i++ {
		o.Add(f.mat.Row(i))
	}
	return o
}

func TestQueryBatchMatchesSingles(t *testing.T) {
	f := newQueryFixture(t, 300, 40)
	eng := NewEngine(f.st, f.mat, QueryDefaults())
	batch := eng.SearchBatchAppend(nil, f.queries, SearchParams{})
	for i, q := range f.queries {
		single := searchOne(eng, q)
		SortNeighbors(single)
		got := append([]Neighbor(nil), batch[i]...)
		SortNeighbors(got)
		if len(single) != len(got) {
			t.Fatalf("query %d: batch %d vs single %d", i, len(got), len(single))
		}
		for j := range single {
			if single[j].ID != got[j].ID {
				t.Fatalf("query %d result %d differs", i, j)
			}
		}
	}
}

func TestSelfQueryFindsSelf(t *testing.T) {
	// A document queried against its own index must return itself at
	// distance 0 (it collides with itself in every table).
	f := newQueryFixture(t, 200, 0)
	eng := NewEngine(f.st, f.mat, QueryDefaults())
	for i := 0; i < 200; i += 13 {
		res := searchOne(eng, f.mat.Row(i))
		found := false
		for _, nb := range res {
			// acos is steep near dot=1, so float32 rounding inflates the
			// self-distance to ~1e-3; anything below 0.01 rad is "self".
			if nb.ID == uint32(i) && nb.Dist < 0.01 {
				found = true
			}
		}
		if !found {
			t.Fatalf("doc %d does not find itself", i)
		}
	}
}

func TestDeletedExcluded(t *testing.T) {
	f := newQueryFixture(t, 200, 0)
	eng := NewEngine(f.st, f.mat, QueryDefaults())
	del := bitvec.New(200)
	del.Set(17)
	eng.SetDeleted(del)
	res := searchOne(eng, f.mat.Row(17))
	for _, nb := range res {
		if nb.ID == 17 {
			t.Fatal("deleted document returned")
		}
	}
	eng.SetDeleted(nil)
	res = searchOne(eng, f.mat.Row(17))
	found := false
	for _, nb := range res {
		if nb.ID == 17 {
			found = true
		}
	}
	if !found {
		t.Fatal("clearing deletion vector did not restore the document")
	}
}

func TestQueryStatsConsistent(t *testing.T) {
	f := newQueryFixture(t, 300, 10)
	eng := NewEngine(f.st, f.mat, QueryDefaults())
	o := f.oracle()
	for _, q := range f.queries {
		res, stats := eng.SearchAppend(nil, q, SearchParams{})
		if stats.Results != len(res) {
			t.Fatalf("stats.Results = %d, len = %d", stats.Results, len(res))
		}
		if stats.Unique > stats.Collisions {
			t.Fatalf("unique %d > collisions %d", stats.Unique, stats.Collisions)
		}
		if stats.Results > stats.Verified || stats.Verified > stats.Unique {
			t.Fatalf("results %d, verified %d, unique %d: not results ≤ verified ≤ unique", stats.Results, stats.Verified, stats.Unique)
		}
		if cand, _ := o.Candidates(q); stats.Unique != len(cand) {
			t.Fatalf("unique = %d, the sketch oracle says %d", stats.Unique, len(cand))
		}
	}
}

func TestWorkspaceReuseAcrossQueries(t *testing.T) {
	// Back-to-back queries must not leak state (bitvector bits, mask
	// values) between calls: two runs of the same query sandwiching a
	// different query must agree.
	f := newQueryFixture(t, 300, 2)
	eng := NewEngine(f.st, f.mat, QueryDefaults())
	r1 := searchOne(eng, f.queries[0])
	_ = searchOne(eng, f.queries[1])
	r2 := searchOne(eng, f.queries[0])
	SortNeighbors(r1)
	SortNeighbors(r2)
	if len(r1) != len(r2) {
		t.Fatalf("workspace leak: %d vs %d results", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i].ID != r2[i].ID {
			t.Fatal("workspace leak: differing results")
		}
	}
}

// everyRow is a Segment whose every row collides with every query, and
// which reports them through seen the way delta.Table.Candidates does.
type everyRow int

func (n everyRow) Len() int { return int(n) }

func (n everyRow) Candidates(_ []uint32, seen *bitvec.Vector, cand []uint32) ([]uint32, int) {
	for id := 0; id < int(n); id++ {
		if seen.TestAndSet(id) {
			cand = append(cand, uint32(id))
		}
	}
	return cand, int(n)
}

// TestProbeSharesTheWorkspaceBitvector: under one Begin the static index
// and further segments — one of them larger than the index, so the
// bitvector grows — deduplicate in the same bitvector, each probe seeing
// it all zero: every segment reports each of its rows once, and the static
// answers before and after are those of a fresh query.
func TestProbeSharesTheWorkspaceBitvector(t *testing.T) {
	f := newQueryFixture(t, 300, 1)
	q := f.queries[0]
	eng := NewEngine(f.st, f.mat, QueryDefaults())
	want := searchOne(eng, q)
	SortNeighbors(want)
	ws := eng.Begin(q)
	for round := 0; round < 2; round++ {
		got, _ := eng.SearchOn(nil, ws, eng.Filter(ws, SearchParams{}))
		SortNeighbors(got)
		if !slices.Equal(got, want) {
			t.Fatalf("round %d: static answers under a shared workspace differ from a fresh query's", round)
		}
		for _, n := range []everyRow{40, 1000, 7} {
			if cand := ws.Probe(n); len(cand) != int(n) {
				t.Fatalf("round %d: a %d-row segment reported %d candidates; the bitvector was not clean", round, n, len(cand))
			}
		}
	}
	eng.End(ws)
}

func TestPhaseCollection(t *testing.T) {
	f := newQueryFixture(t, 300, 10)
	opts := QueryDefaults()
	opts.CollectPhases = true
	eng := NewEngine(f.st, f.mat, opts)
	eng.SearchBatchAppend(nil, f.queries, SearchParams{})
	ph := eng.Phases()
	if ph.Q2NS <= 0 || ph.Q3NS <= 0 {
		t.Fatalf("phases not collected: %+v", ph)
	}
	eng.ResetPhases()
	if ph = eng.Phases(); ph.Q2NS != 0 || ph.Q3NS != 0 {
		t.Fatal("ResetPhases did not zero")
	}
}

func TestZeroQueryReturnsNothing(t *testing.T) {
	f := newQueryFixture(t, 100, 0)
	eng := NewEngine(f.st, f.mat, QueryDefaults())
	if res := searchOne(eng, sparse.Vector{}); res != nil {
		t.Fatalf("zero query returned %v", res)
	}
}

func TestExactNeighborsGroundTruth(t *testing.T) {
	f := newQueryFixture(t, 150, 5)
	for _, q := range f.queries {
		exact := ExactNeighbors(f.mat, q, 0.9)
		// Every exact neighbor must genuinely be within R; and the count
		// must match a naive recount.
		count := 0
		for i := 0; i < f.mat.Rows(); i++ {
			d := sparse.AngularDistance(sparse.Dot(q, f.mat.Row(i)))
			if d <= 0.9 {
				count++
			}
		}
		if len(exact) != count {
			t.Fatalf("ExactNeighbors = %d, recount %d", len(exact), count)
		}
	}
}

// Recall: with planted near-duplicates, the fraction of true R-near
// neighbors the index reports must respect the 1−δ guarantee (δ set by the
// parameter choice; here we check empirically against the analytic P').
func TestRecallMatchesRetrievalProb(t *testing.T) {
	f := newQueryFixture(t, 800, 60)
	eng := NewEngine(f.st, f.mat, QueryDefaults())
	p := f.fam.Params()
	var expected, got float64
	for _, q := range f.queries {
		exact := ExactNeighbors(f.mat, q, 0.9)
		res := searchOne(eng, q)
		found := map[uint32]bool{}
		for _, nb := range res {
			found[nb.ID] = true
		}
		for _, nb := range exact {
			expected += lshhash.RetrievalProb(nb.Dist, p.K, p.M)
			if found[nb.ID] {
				got++
			}
		}
	}
	if expected == 0 {
		t.Skip("no true neighbors in sample")
	}
	ratio := got / expected
	// Chernoff slack: empirical retrieval within 15% of the analytic sum.
	if ratio < 0.85 || ratio > 1.15 {
		t.Fatalf("retrieved %v true neighbors, model expects %v (ratio %v)", got, expected, ratio)
	}
}
