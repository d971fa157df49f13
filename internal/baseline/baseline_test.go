package baseline

import (
	"testing"

	"plsh/internal/core"
	"plsh/internal/corpus"
	"plsh/internal/lshhash"
	"plsh/internal/sparse"
)

const testRadius = 0.9

func fixture(t *testing.T, nDocs int) (*sparse.Matrix, []sparse.Vector) {
	t.Helper()
	cfg := corpus.Twitter(nDocs, 2000, 7)
	cfg.NearDupRate = 0.25
	c := corpus.Generate(cfg)
	return c.Mat, c.SampleQueries(15, 99)
}

func sortIDs(ns []core.Neighbor) []core.Neighbor {
	out := append([]core.Neighbor(nil), ns...)
	core.SortNeighbors(out)
	return out
}

func TestExhaustiveMatchesExactNeighbors(t *testing.T) {
	mat, queries := fixture(t, 300)
	ex := NewExhaustive(mat, testRadius, 2)
	for qi, q := range queries {
		res := ex.Query(q)
		want := core.ExactNeighbors(mat, q, testRadius)
		if res.DistComps != mat.Rows() {
			t.Fatalf("query %d: DistComps = %d, want %d", qi, res.DistComps, mat.Rows())
		}
		got := sortIDs(res.Neighbors)
		exp := sortIDs(want)
		if len(got) != len(exp) {
			t.Fatalf("query %d: %d vs %d neighbors", qi, len(got), len(exp))
		}
		for i := range exp {
			if got[i].ID != exp[i].ID {
				t.Fatalf("query %d neighbor %d differs", qi, i)
			}
		}
	}
}

// The inverted index is deterministic and must return exactly the
// exhaustive answer: any document within R = 0.9 < π/2 shares at least one
// word with the query (orthogonal vectors are at π/2).
func TestInvertedMatchesExhaustive(t *testing.T) {
	mat, queries := fixture(t, 400)
	ex := NewExhaustive(mat, testRadius, 2)
	inv := NewInverted(mat, testRadius, 2)
	for qi, q := range queries {
		got := sortIDs(inv.Query(q).Neighbors)
		want := sortIDs(ex.Query(q).Neighbors)
		if len(got) != len(want) {
			t.Fatalf("query %d: inverted %d vs exhaustive %d", qi, len(got), len(want))
		}
		for i := range want {
			if got[i].ID != want[i].ID || got[i].Dist != want[i].Dist {
				t.Fatalf("query %d neighbor %d differs", qi, i)
			}
		}
	}
}

func TestInvertedCandidateCounts(t *testing.T) {
	mat, queries := fixture(t, 400)
	inv := NewInverted(mat, testRadius, 1)
	for qi, q := range queries {
		res := inv.Query(q)
		// Brute-force candidate count: docs sharing ≥1 word.
		want := 0
		for i := 0; i < mat.Rows(); i++ {
			row := mat.Row(i)
			if sharesWord(q, row) {
				want++
			}
		}
		if res.DistComps != want {
			t.Fatalf("query %d: DistComps = %d, want %d", qi, res.DistComps, want)
		}
		// Inverted candidates must be far fewer than exhaustive scans yet
		// at least the result count.
		if res.DistComps > mat.Rows() || res.DistComps < len(res.Neighbors) {
			t.Fatalf("query %d: implausible DistComps %d", qi, res.DistComps)
		}
	}
}

func sharesWord(a, b sparse.Vector) bool {
	i, j := 0, 0
	for i < len(a.Idx) && j < len(b.Idx) {
		switch {
		case a.Idx[i] == b.Idx[j]:
			return true
		case a.Idx[i] < b.Idx[j]:
			i++
		default:
			j++
		}
	}
	return false
}

func TestPostingsComplete(t *testing.T) {
	mat, _ := fixture(t, 200)
	inv := NewInverted(mat, testRadius, 1)
	// Every document must appear in the postings of each of its words.
	for i := 0; i < mat.Rows(); i++ {
		row := mat.Row(i)
		for _, w := range row.Idx {
			found := false
			for _, id := range inv.postings[w] {
				if id == uint32(i) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("doc %d missing from postings of word %d", i, w)
			}
		}
	}
	if inv.MemoryBytes() <= 0 {
		t.Fatal("MemoryBytes not reported")
	}
}

func TestBatchVariantsMatchSingles(t *testing.T) {
	mat, queries := fixture(t, 250)
	type batcher interface {
		QueryBatch([]sparse.Vector) []Result
		Query(sparse.Vector) Result
	}
	for name, b := range map[string]batcher{
		"exhaustive": NewExhaustive(mat, testRadius, 4),
		"inverted":   NewInverted(mat, testRadius, 4),
	} {
		batch := b.QueryBatch(queries)
		for i, q := range queries {
			single := b.Query(q)
			if single.DistComps != batch[i].DistComps {
				t.Fatalf("%s query %d: comps %d vs %d", name, i, single.DistComps, batch[i].DistComps)
			}
			got := sortIDs(batch[i].Neighbors)
			want := sortIDs(single.Neighbors)
			if len(got) != len(want) {
				t.Fatalf("%s query %d: %d vs %d", name, i, len(got), len(want))
			}
			for j := range want {
				if got[j].ID != want[j].ID {
					t.Fatalf("%s query %d neighbor %d differs", name, i, j)
				}
			}
		}
	}
}

// The Table 2 ordering: distance computations must rank
// exhaustive > inverted > LSH for typical short-document corpora. LSH's
// distance computations are the engine's unique candidates.
func TestTable2WorkOrdering(t *testing.T) {
	mat, queries := fixture(t, 1000)
	fam, _ := lshhash.NewFamily(lshhash.Params{Dim: 2000, K: 8, M: 6, Seed: 42})
	ex := NewExhaustive(mat, testRadius, 2)
	inv := NewInverted(mat, testRadius, 2)
	st, err := core.Build(fam, mat, core.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(st, mat, core.QueryDefaults())
	var exC, invC, lshC int
	for _, q := range queries {
		exC += ex.Query(q).DistComps
		invC += inv.Query(q).DistComps
		_, stats := eng.SearchAppend(nil, q, core.SearchParams{Radius: testRadius})
		lshC += stats.Unique
	}
	if !(exC > invC && invC > lshC) {
		t.Fatalf("work ordering violated: exhaustive=%d inverted=%d lsh=%d", exC, invC, lshC)
	}
}
