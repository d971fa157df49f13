package corpus

import (
	"math"
	"testing"

	"plsh/internal/sparse"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := Twitter(500, 2000, 42)
	a := Generate(cfg)
	b := Generate(cfg)
	if len(a.Docs) != len(b.Docs) {
		t.Fatal("doc counts differ across identical runs")
	}
	for i := range a.Docs {
		if len(a.Docs[i]) != len(b.Docs[i]) {
			t.Fatalf("doc %d differs", i)
		}
		for j := range a.Docs[i] {
			if a.Docs[i][j] != b.Docs[i][j] {
				t.Fatalf("doc %d token %d differs", i, j)
			}
		}
	}
}

func TestGenerateShape(t *testing.T) {
	cfg := Twitter(2000, 5000, 1)
	c := Generate(cfg)
	if c.Mat.Rows() != 2000 || len(c.Docs) != 2000 {
		t.Fatalf("rows = %d", c.Mat.Rows())
	}
	// Mean NNZ should be near MeanLen (slightly below: duplicate words and
	// zero-IDF words collapse).
	mean := float64(c.Mat.NNZ()) / float64(c.Mat.Rows())
	if mean < 4 || mean > 9 {
		t.Fatalf("mean NNZ = %v, want near 7.2", mean)
	}
	// All rows unit-normalized.
	for i := 0; i < 50; i++ {
		if n := c.Mat.Row(i).Norm(); math.Abs(n-1) > 1e-5 {
			t.Fatalf("row %d norm = %v", i, n)
		}
	}
}

func TestWikipediaLonger(t *testing.T) {
	tw := Generate(Twitter(300, 5000, 7))
	wp := Generate(Wikipedia(300, 5000, 7))
	twMean := float64(tw.Mat.NNZ()) / float64(tw.Mat.Rows())
	wpMean := float64(wp.Mat.NNZ()) / float64(wp.Mat.Rows())
	if wpMean < 3*twMean {
		t.Fatalf("wikipedia docs not longer: tw=%v wp=%v", twMean, wpMean)
	}
}

func TestZipfSkewInCorpus(t *testing.T) {
	c := Generate(Twitter(5000, 3000, 3))
	counts := make(map[uint32]int)
	for _, d := range c.Docs {
		for _, w := range d {
			counts[w]++
		}
	}
	max := 0
	for _, n := range counts {
		if n > max {
			max = n
		}
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	// The hottest word should carry well over 1% of all tokens under
	// Zipf(1.07); a uniform distribution would give ~0.03%.
	if float64(max)/float64(total) < 0.01 {
		t.Fatalf("vocabulary not skewed: max share = %v", float64(max)/float64(total))
	}
	// And far fewer distinct words than tokens.
	if len(counts) >= total {
		t.Fatal("no word repetition at all")
	}
}

func TestNearDuplicatesExist(t *testing.T) {
	// With NearDupRate set, a noticeable fraction of documents must have a
	// close neighbor (angular distance below ~0.9 as in the paper).
	c := Generate(Config{
		Docs: 800, VocabSize: 5000, ZipfAlpha: 1.07, MeanLen: 7.2,
		NearDupRate: 0.3, NearDupEdits: 1, Seed: 11,
	})
	near := 0
	const R = 0.9
	for i := 100; i < 400; i++ {
		qi := c.Mat.Row(i)
		for j := 0; j < i; j++ {
			d := sparse.Dot(qi, c.Mat.Row(j))
			if sparse.AngularDistance(d) <= R && i != j {
				near++
				break
			}
		}
	}
	if near < 30 {
		t.Fatalf("only %d/300 docs have an R-near neighbor; near-dup planting failed", near)
	}
}

func TestNoNearDupWhenRateZero(t *testing.T) {
	c := Generate(Config{
		Docs: 300, VocabSize: 50000, ZipfAlpha: 1.3, MeanLen: 7,
		NearDupRate: 0, NearDupEdits: 0, Seed: 13,
	})
	// With a huge sparse vocabulary and no planted dups, random short docs
	// rarely collide; sanity-check the generator doesn't secretly clone.
	same := 0
	for i := 1; i < 100; i++ {
		if sparse.Dot(c.Mat.Row(i), c.Mat.Row(i-1)) > 0.99 {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("%d adjacent near-identical docs with NearDupRate=0", same)
	}
}

func TestSampleQueries(t *testing.T) {
	c := Generate(Twitter(400, 2000, 5))
	qs := c.SampleQueries(50, 99)
	if len(qs) != 50 {
		t.Fatalf("got %d queries", len(qs))
	}
	for _, q := range qs {
		if q.NNZ() == 0 {
			t.Fatal("zero-length query sampled")
		}
		if math.Abs(q.Norm()-1) > 1e-5 {
			t.Fatalf("query norm %v", q.Norm())
		}
	}
	// Deterministic in seed.
	qs2 := c.SampleQueries(50, 99)
	for i := range qs {
		if qs[i].NNZ() != qs2[i].NNZ() {
			t.Fatal("SampleQueries not deterministic")
		}
	}
}

func TestStreamEncodeConsistentWithIDF(t *testing.T) {
	s := NewStream(Twitter(0, 1000, 21))
	var docs [][]uint32
	for i := 0; i < 200; i++ {
		docs = append(docs, s.NextTokens())
	}
	doc := docs[199]
	v, ok := s.EncodeIDs(doc, 1000)
	if !ok {
		t.Skip("sampled doc encoded to zero; acceptable")
	}
	if math.Abs(v.Norm()-1) > 1e-5 {
		t.Fatalf("norm %v", v.Norm())
	}
	// Values must be proportional to current IDF.
	if v.NNZ() >= 2 {
		i0, i1 := v.Idx[0], v.Idx[1]
		r1 := float64(v.Val[0]) / float64(v.Val[1])
		r2 := s.IDF(i0) / s.IDF(i1)
		if math.Abs(r1-r2) > 1e-4 {
			t.Fatalf("value ratio %v != IDF ratio %v", r1, r2)
		}
	}
}

func TestStreamPanics(t *testing.T) {
	for _, cfg := range []Config{
		{VocabSize: 1, MeanLen: 5, ZipfAlpha: 1.1},
		{VocabSize: 100, MeanLen: 0, ZipfAlpha: 1.1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewStream(%+v) did not panic", cfg)
				}
			}()
			NewStream(cfg)
		}()
	}
}

func TestNextVectorNeverZero(t *testing.T) {
	s := NewStream(Twitter(0, 500, 31))
	for i := 0; i < 500; i++ {
		if s.NextVector().NNZ() == 0 {
			t.Fatal("NextVector returned zero vector")
		}
	}
}
