package core

import (
	"cmp"
	"slices"
	"sync"
	"testing"

	"plsh/internal/bitvec"
	"plsh/internal/israce"
	"plsh/internal/oracle"
	"plsh/internal/sparse"
)

// TestSearchMatchesNaiveReference: over the arena and over a scattered
// store, × {no tombstones, 10 % tombstones} × {engine radius, request
// radius}, SearchAppend returns exactly the sketch oracle's neighbours,
// compared in (distance, ID) order, and its QueryStats: Unique, Verified and
// Results from the oracle over the live rows, Collisions from the one over every row
// (a tombstone filters answers; the table still holds the row). It must also
// answer in ascending ID order, the order it verifies in (§5.2.2's
// sequential access to the store). Each engine is shared by 8 goroutines,
// so `go test -race` also checks that the pooled workspaces keep concurrent
// queries apart.
func TestSearchMatchesNaiveReference(t *testing.T) {
	f := newQueryFixture(t, 400, 24)
	const R = 0.9
	all, live := f.oracle(), f.oracle()
	tombstones := bitvec.New(f.mat.Rows())
	for id := 3; id < f.mat.Rows(); id += 10 {
		tombstones.SetAtomic(id)
		live.Delete(uint32(id))
	}
	stores := []struct {
		name  string
		store sparse.Store
	}{
		{"arena", f.mat},
		{"scattered", sparse.NewScatteredStore(f.mat)},
	}
	type request struct {
		p SearchParams
		q int
	}
	var requests []request
	for _, radius := range []float64{0, 1.2} {
		for qi := range f.queries {
			requests = append(requests, request{SearchParams{Radius: radius}, qi})
		}
	}
	for _, sc := range stores {
		for _, del := range []*bitvec.Vector{nil, tombstones} {
			o := all
			if del != nil {
				o = live
			}
			eng := NewEngine(f.st, sc.store, QueryOptions{Radius: R})
			eng.SetDeleted(del)
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var dst []Neighbor
					// Each goroutine starts elsewhere in the grid so different
					// requests overlap in time on the shared engine.
					for i := range requests {
						rq := requests[(i+g*len(requests)/8)%len(requests)]
						q := f.queries[rq.q]
						var got QueryStats
						dst, got = eng.SearchAppend(dst[:0], q, rq.p)
						if !slices.IsSortedFunc(dst, func(a, b Neighbor) int { return cmp.Compare(a.ID, b.ID) }) {
							t.Errorf("%s del=%v %+v query %d: answers not in ascending ID order: %v", sc.name, del != nil, rq.p, rq.q, dst)
						}
						radius := R
						if rq.p.Radius > 0 {
							radius = rq.p.Radius
						}
						want, st := o.Answers(q, radius, 0)
						_, collisions := all.Candidates(q)
						wantStats := QueryStats{Collisions: collisions, Unique: st.Unique, Verified: st.Verified, Results: st.Results}
						SortNeighbors(dst)
						if got != wantStats || !slices.EqualFunc(dst, want, func(a Neighbor, b oracle.Neighbor) bool { return a == Neighbor(b) }) {
							t.Errorf("%s del=%v %+v query %d:\n got %v %+v\nwant %v %+v", sc.name, del != nil, rq.p, rq.q, dst, got, want, wantStats)
						}
					}
				}()
			}
			wg.Wait()
		}
	}
}

// TestSearchAppendDoesNotAllocate: with a warm workspace pool and a dst of
// sufficient capacity, a query allocates nothing — at the engine's radius,
// and at a request's, whose Hamming bound is computed per query.
func TestSearchAppendDoesNotAllocate(t *testing.T) {
	if israce.Enabled {
		t.Skip("sync.Pool drops workspaces at random under -race")
	}
	f := newQueryFixture(t, 400, 8)
	eng := NewEngine(f.st, f.mat, QueryDefaults())
	dst := make([]Neighbor, 0, f.mat.Rows())
	for _, q := range f.queries { // warm the pooled workspace's buffers
		eng.SearchAppend(dst, q, SearchParams{})
	}
	for _, p := range []SearchParams{{}, {Radius: 1.2}} {
		if n := testing.AllocsPerRun(100, func() {
			for _, q := range f.queries {
				eng.SearchAppend(dst, q, p)
			}
		}); n != 0 {
			t.Errorf("%+v: SearchAppend allocates %.1f times per %d queries, want 0", p, n, len(f.queries))
		}
	}
}
