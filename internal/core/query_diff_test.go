package core

import (
	"slices"
	"sync"
	"testing"

	"plsh/internal/bitvec"
	"plsh/internal/israce"
	"plsh/internal/lshhash"
	"plsh/internal/sparse"
)

// naiveSearch is the reference the kernels are differenced against: it
// unions the query's L buckets with a map, orders the candidates (ascending
// ID, or first-seen bucket-scan order), and verifies them one by one with
// the merge dot product under the same tombstone and radius rules the
// engine documents. It shares no code with kernels.go.
func naiveSearch(f *queryFixture, q sparse.Vector, ascending bool, del *bitvec.Vector, p SearchParams, radius float64) ([]Neighbor, QueryStats) {
	var stats QueryStats
	hp := f.fam.Params()
	sketch := f.fam.Sketch(q)
	seen := map[uint32]bool{}
	var cand []uint32
	for l := 0; l < f.st.NumTables(); l++ {
		a, b := lshhash.PairForTable(l, hp.M)
		bucket := f.st.Table(l).Bucket(nil, sketch[a]<<uint(hp.K/2)|sketch[b])
		stats.Collisions += len(bucket)
		for _, id := range bucket {
			if !seen[id] {
				seen[id] = true
				cand = append(cand, id)
			}
		}
	}
	if ascending {
		slices.Sort(cand)
	}
	if p.Radius > 0 {
		radius = p.Radius
	}
	var out []Neighbor
	for _, id := range cand {
		if del != nil && del.TestAtomic(int(id)) {
			continue
		}
		stats.Unique++
		if dot := sparse.Dot(q, f.mat.Row(int(id))); dot >= sparse.CosThreshold(radius) {
			out = append(out, Neighbor{ID: id, Dist: sparse.AngularDistance(dot)})
		}
	}
	stats.Results = len(out)
	return out, stats
}

// TestSearchMatchesNaiveReference: for every dedup/dot arm × {no
// tombstones, 10 % tombstones} × {engine radius, request radius},
// SearchAppend returns exactly the reference's neighbours — IDs, distances,
// order and QueryStats. The reference verifies in the arm's own candidate
// order (ascending ID after extraction, first-seen order for
// mark-and-append); the set arm drains a map in random order, so its
// answers are compared sorted. Each engine is shared by 8 goroutines, so
// `go test -race` also checks that the pooled workspaces keep concurrent
// queries apart.
func TestSearchMatchesNaiveReference(t *testing.T) {
	f := newQueryFixture(t, 400, 24)
	const R = 0.9
	tombstones := bitvec.New(f.mat.Rows())
	for id := 3; id < f.mat.Rows(); id += 10 {
		tombstones.SetAtomic(id)
	}
	arms := []struct {
		name      string
		opts      QueryOptions
		ascending bool // candidate order: ascending ID, else first-seen
		unordered bool // candidate order is random (map drain)
	}{
		{"set+merge", QueryOptions{Radius: R}, false, true},
		{"set+mask", QueryOptions{Radius: R, OptimizedDP: true}, false, true},
		{"append+merge", QueryOptions{Radius: R, UseBitvector: true}, false, false},
		{"append+mask", QueryOptions{Radius: R, UseBitvector: true, OptimizedDP: true}, false, false},
		{"extract+mask", QueryOptions{Radius: R, UseBitvector: true, OptimizedDP: true, ExtractCandidates: true}, true, false},
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
	for _, arm := range arms {
		for _, del := range []*bitvec.Vector{nil, tombstones} {
			eng := NewEngine(f.st, f.mat, arm.opts)
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
						want, wantStats := naiveSearch(f, q, arm.ascending, del, rq.p, R)
						if arm.unordered {
							SortNeighbors(dst)
							SortNeighbors(want)
						}
						if got != wantStats || !slices.Equal(dst, want) {
							t.Errorf("%s del=%v %+v query %d:\n got %v %+v\nwant %v %+v", arm.name, del != nil, rq.p, rq.q, dst, got, want, wantStats)
						}
					}
				}()
			}
			wg.Wait()
		}
	}
}

// TestSearchAppendDoesNotAllocate: with a warm workspace pool and a dst of
// sufficient capacity, a query allocates nothing — on every arm that has no
// map to drain.
func TestSearchAppendDoesNotAllocate(t *testing.T) {
	if israce.Enabled {
		t.Skip("sync.Pool drops workspaces at random under -race")
	}
	f := newQueryFixture(t, 400, 8)
	for _, opts := range []QueryOptions{
		QueryDefaults(),
		{Radius: 0.9, UseBitvector: true, OptimizedDP: true},
		{Radius: 0.9, UseBitvector: true},
	} {
		eng := NewEngine(f.st, f.mat, opts)
		dst := make([]Neighbor, 0, f.mat.Rows())
		for _, q := range f.queries { // warm the pooled workspace's buffers
			eng.SearchAppend(dst, q, SearchParams{})
		}
		if n := testing.AllocsPerRun(100, func() {
			for _, q := range f.queries {
				eng.SearchAppend(dst, q, SearchParams{})
			}
		}); n != 0 {
			t.Errorf("%+v: SearchAppend allocates %.1f times per %d queries, want 0", opts, n, len(f.queries))
		}
	}
}
