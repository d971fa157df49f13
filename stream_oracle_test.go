package plsh

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"plsh/internal/lshhash"
	"plsh/internal/sparse"
)

// TestStreamingMergesMatchOracle drives the whole streaming write path at
// once — a writer whose batches keep the segment chain folding and push the
// delta past η·C again and again, a deleter tombstoning rows on both sides
// of the static boundary, searchers in between — and holds every answer to
// the exhaustive-scan oracle. K=4 over M=16 makes retrieval all but certain,
// so the oracle is exact: while the writers run an answer may miss a row
// (not inserted yet, or deleted meanwhile) but never invents or misprices
// one; once they stop and the merges settle, answers equal the oracle over
// the rows still live. Run under -race it is also the proof that merges
// read published tables and frozen segments and write neither.
func TestStreamingMergesMatchOracle(t *testing.T) {
	const total, batch, radius = 1800, 30, 1.1
	s, err := NewStore(Config{Dim: 2000, K: 4, M: 16, Radius: radius, Capacity: 2000, DeltaFraction: 0.06})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	docs := SyntheticTweets(total, 2000, 71)
	ids := make([]uint64, total)
	for i := range ids {
		ids[i] = uint64(i)
	}
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
				for _, m := range oracleMatches(docs, ids, q, radius, 0) {
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

	var live []Vector
	var liveIDs []uint64
	for i, d := range docs {
		if !deleted[i].Load() {
			live, liveIDs = append(live, d), append(liveIDs, uint64(i))
		}
	}
	for _, phase := range []string{"settled", "fully merged"} {
		if phase == "fully merged" {
			if err := s.Merge(bg); err != nil {
				t.Fatal(err)
			}
		}
		for qi := 0; qi < total; qi += 23 {
			for _, r := range []float64{0.8, radius} {
				res, err := s.Search(bg, docs[qi], WithRadius(r))
				if err != nil {
					t.Fatal(err)
				}
				requireMatchesEqual(t, fmt.Sprintf("%s, query %d radius %v", phase, qi, r), res.Matches,
					oracleMatches(live, liveIDs, docs[qi], r, 0))
			}
		}
	}
}

// sketchOracle is the answer set the sketches fix (§5.2, Steps Q2–Q4): the
// live rows within radius of q that share some table key with it, i.e.
// agree with its sketch on at least two of the M half-keys. It reads no
// table and no core code — only each row's sketch and its dot product —
// and returns the rows in Search's (distance, ID) order.
func sketchOracle(docs []Vector, sketches [][]uint32, deleted []bool, q Vector, qSketch []uint32, radius float64) []Match {
	thr := sparse.CosThreshold(radius)
	var in []Match
	for i, d := range docs {
		agree := 0
		for j, h := range sketches[i] {
			if h == qSketch[j] {
				agree++
			}
		}
		if agree < 2 || deleted[i] {
			continue
		}
		if dot := sparse.Dot(q, d); dot >= thr {
			in = append(in, Match{ID: uint64(i), Dist: sparse.AngularDistance(dot)})
		}
	}
	sortMatches(in)
	return in
}

// TestStreamingAnswersMatchSketchOracle: at the benchmark suite's geometry
// (K 16, M 16, radius 0.9), where an in-radius row is often an LSH miss, a
// Store fed 30 000 tweets 100 at a time, with 3 random deletes a batch and
// its background merges running, answers every query with exactly the
// sketch-exact set: no search skips a candidate, so what the sketches
// predict is what comes back — no more, no fewer.
func TestStreamingAnswersMatchSketchOracle(t *testing.T) {
	const total, batch, dim, radius = 30000, 100, 50000, 0.9
	s, err := NewStore(Config{Dim: dim, K: 16, M: 16, Radius: radius, Capacity: 32768})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cfg := s.Config() // the Store's effective seed draws the same hyperplanes
	fam, err := lshhash.NewFamily(lshhash.Params{Dim: dim, K: cfg.K, M: cfg.M, Seed: cfg.Seed})
	if err != nil {
		t.Fatal(err)
	}
	docs := SyntheticTweets(total, dim, 1)
	sketches := make([][]uint32, total)
	deleted := make([]bool, total)
	rng := rand.New(rand.NewSource(5))
	for at := 0; at < total; at += batch {
		if _, err := s.Insert(bg, docs[at:at+batch]); err != nil {
			t.Fatal(err)
		}
		for i := at; i < at+batch; i++ {
			sketches[i] = fam.Sketch(docs[i])
		}
		for range 3 {
			id := rng.Intn(at + batch)
			if err := s.Delete(bg, uint64(id)); err != nil {
				t.Fatal(err)
			}
			deleted[id] = true
		}
	}
	answers := 0
	for qi := 0; qi < total; qi += 64 {
		res, err := s.Search(bg, docs[qi])
		if err != nil {
			t.Fatal(err)
		}
		requireMatchesEqual(t, fmt.Sprintf("query %d", qi), res.Matches,
			sketchOracle(docs, sketches, deleted, docs[qi], sketches[qi], radius))
		answers += len(res.Matches)
	}
	if err := s.Flush(bg); err != nil {
		t.Fatal(err)
	}
	st := s.StatsNow()
	t.Logf("%d answers, %d merges, %d tombstones", answers, st.Merges, st.Deleted)
	if st.Merges < 8 || answers < 500 {
		t.Fatalf("%d merges and %d answers; the test wants at least 8 and 500", st.Merges, answers)
	}
}
