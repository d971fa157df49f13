package plsh

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// TestStreamingMergesMatchOracle drives the whole streaming write path at
// once — a writer whose batches keep the segment chain folding and push the
// delta past η·C again and again, a deleter tombstoning rows on both sides
// of the static boundary, searchers in between — at the suite's geometry
// (K 16, M 16), and holds every answer to the sketch oracle. While the
// writers run an answer may miss a row (not inserted yet, or deleted
// meanwhile) but never invents or misprices one: every match is in the
// oracle over all the documents. Once they stop and the merges settle,
// answers equal the oracle over the rows still live, for every document as
// the query. Run under -race it is also the proof that merges read
// published tables and frozen segments and write neither.
func TestStreamingMergesMatchOracle(t *testing.T) {
	const total, batch, radius = 1800, 30, 1.1
	cfg := Config{Dim: 2000, K: 16, M: 16, Radius: radius, Capacity: 2000, DeltaFraction: 0.06}
	s, err := NewStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	docs := SyntheticTweets(total, 2000, 71)
	o := newOracle(t, cfg, docs)
	var inserted atomic.Int64 // rows acknowledged so far
	deleted := make([]atomic.Bool, total)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i += 7 {
				select {
				case <-stop:
					return
				default:
				}
				q := docs[i%total]
				res, err := s.Search(bg, q)
				if err != nil {
					t.Errorf("search: %v", err)
					return
				}
				want := map[uint64]float64{}
				for _, m := range wantMatches(o, nil, q, radius, 0) {
					want[m.ID] = m.Dist
				}
				for _, m := range res.Matches {
					if d, ok := want[m.ID]; !ok || d != m.Dist {
						t.Errorf("mid-stream query %d: match %d at %v, oracle has %v (present %v)", i%total, m.ID, m.Dist, d, ok)
						return
					}
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() { // deleter: trails the writer, hits merged and unmerged rows alike
		defer wg.Done()
		for id := 3; id < total; id += 17 {
			for int64(id) >= inserted.Load() {
				select {
				case <-stop:
					return
				default:
				}
			}
			if err := s.Delete(bg, uint64(id)); err != nil {
				t.Errorf("delete %d: %v", id, err)
				return
			}
			deleted[id].Store(true)
		}
	}()
	for at := 0; at < total; at += batch {
		got, err := s.Insert(bg, docs[at:at+batch])
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != uint64(at) {
			t.Fatalf("batch at %d acknowledged as %d", at, got[0])
		}
		inserted.Store(int64(at + batch))
	}
	close(stop)
	wg.Wait()
	if err := s.Flush(bg); err != nil {
		t.Fatal(err)
	}
	st := s.StatsNow()
	if st.Merges < 2 || st.StaticLen+st.DeltaLen != total {
		t.Fatalf("the stream did not exercise merges: %+v", st)
	}

	for i := range deleted {
		if deleted[i].Load() {
			o.Delete(uint32(i))
		}
	}
	radii := []float64{0.8, radius}
	want := make([][]Match, len(docs)*len(radii)) // the same rows are live in both phases
	for qi, q := range docs {
		for ri, r := range radii {
			want[qi*len(radii)+ri] = wantMatches(o, nil, q, r, 0)
		}
	}
	answers := 0
	for _, phase := range []string{"settled", "fully merged"} {
		if phase == "fully merged" {
			if err := s.Merge(bg); err != nil {
				t.Fatal(err)
			}
		}
		for qi, q := range docs {
			for ri, r := range radii {
				res, err := s.Search(bg, q, WithRadius(r))
				if err != nil {
					t.Fatal(err)
				}
				requireMatchesEqual(t, fmt.Sprintf("%s, query %d radius %v", phase, qi, r), res.Matches,
					want[qi*len(radii)+ri])
				answers += nonSelf(res.Matches, uint64(qi))
			}
		}
	}
	requireNonSelfFloor(t, answers, 2000)
}

// TestStreamingAnswersMatchSketchOracle: at the benchmark suite's geometry
// (K 16, M 16, radius 0.9), where an in-radius row is often an LSH miss, a
// Store fed 30 000 tweets 100 at a time, with 3 random deletes a batch and
// its background merges running, answers every query with exactly the
// sketch-exact set: no search skips a candidate, so what the sketches
// predict is what comes back — no more, no fewer. Stream equals static: a
// second Store given the same rows in three batches and the same deletes,
// then merged into one static index, answers every query as the stream did.
func TestStreamingAnswersMatchSketchOracle(t *testing.T) {
	const total, batch, dim, radius = 30000, 100, 50000, 0.9
	s, err := NewStore(Config{Dim: dim, K: 16, M: 16, Radius: radius, Capacity: 32768})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	docs := SyntheticTweets(total, dim, 1)
	o := newOracle(t, s.Config(), nil)
	rng := rand.New(rand.NewSource(5))
	var deletes []int
	for at := 0; at < total; at += batch {
		if _, err := s.Insert(bg, docs[at:at+batch]); err != nil {
			t.Fatal(err)
		}
		o.Add(docs[at : at+batch]...)
		for range 3 {
			id := rng.Intn(at + batch)
			if err := s.Delete(bg, uint64(id)); err != nil {
				t.Fatal(err)
			}
			o.Delete(uint32(id))
			deletes = append(deletes, id)
		}
	}
	answers := 0
	var streamed [][]Match // every 64th row's answers
	for qi := 0; qi < total; qi += 64 {
		res, err := s.Search(bg, docs[qi])
		if err != nil {
			t.Fatal(err)
		}
		requireMatchesEqual(t, fmt.Sprintf("query %d", qi), res.Matches,
			wantMatches(o, nil, docs[qi], radius, 0))
		answers += len(res.Matches)
		streamed = append(streamed, res.Matches)
	}
	if err := s.Flush(bg); err != nil {
		t.Fatal(err)
	}
	st := s.StatsNow()
	t.Logf("%d answers, %d merges, %d tombstones", answers, st.Merges, st.Deleted)
	if st.Merges < 8 || answers < 500 {
		t.Fatalf("%d merges and %d answers; the test wants at least 8 and 500", st.Merges, answers)
	}

	static, err := NewStore(s.Config())
	if err != nil {
		t.Fatal(err)
	}
	defer static.Close()
	for at := 0; at < total; at += total / 3 {
		if _, err := static.Insert(bg, docs[at:at+total/3]); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range deletes {
		if err := static.Delete(bg, uint64(id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := static.Merge(bg); err != nil {
		t.Fatal(err)
	}
	if st := static.StatsNow(); st.StaticLen != total || st.DeltaLen != 0 {
		t.Fatalf("the static side is not one static index: %+v", st)
	}
	for i, want := range streamed {
		qi := 64 * i
		res, err := static.Search(bg, docs[qi])
		if err != nil {
			t.Fatal(err)
		}
		requireMatchesEqual(t, fmt.Sprintf("static, query %d", qi), res.Matches, want)
	}
}
