package core

import (
	"fmt"
	"slices"
	"testing"

	"plsh/internal/lshhash"
	"plsh/internal/rng"
	"plsh/internal/sched"
)

// rebuildReference is the merge as it ran before Merge: every row of
// the prefix through the builder again, then Compact over the tombstones. It
// lives in test files only, as the specification the copy is checked against.
func rebuildReference(fam *lshhash.Family, sk *lshhash.Sketches, dead []uint64) *Static {
	st := BuildFromSketches(fam, sk, 2)
	st.Compact(func(id uint32) bool { return dead[id>>6]>>(id&63)&1 != 0 }, 2)
	return st
}

// randomDead sets each of n bits with probability 1/oneIn.
func randomDead(n, oneIn int, seed uint64) []uint64 {
	src := rng.New(seed)
	dead := make([]uint64, (n+63)/64)
	for i := 0; i < n; i++ {
		if src.Intn(oneIn) == 0 {
			dead[i>>6] |= 1 << (i & 63)
		}
	}
	return dead
}

func concatSketches(a, b *lshhash.Sketches) *lshhash.Sketches {
	return &lshhash.Sketches{M: a.M, Data: slices.Concat(a.Data, b.Data)}
}

// sameBucketsAs checks Bucket(key) of got against want for every one of the
// 2^K keys of every table.
func sameBucketsAs(t *testing.T, what string, got []Table, want *Static) {
	t.Helper()
	buckets := want.fam.Params().Buckets()
	for l := range got {
		for key := 0; key < buckets; key++ {
			g, w := got[l].Bucket(uint32(key)), want.tables[l].Bucket(uint32(key))
			if !slices.Equal(g, w) {
				t.Fatalf("%s: table %d bucket %d = %v, rebuild has %v", what, l, key, g, w)
			}
		}
	}
}

// TestMergeMatchesRebuild: for static sides from empty to four rows a
// bucket, delta sides from one row to a merge trigger's worth, uniform and
// skewed keys, and tombstones on both sides — some old enough to have been
// compacted out of the static side already, leaving set bits over empty
// buckets — the merged tables validate, hold exactly the live items, and
// answer Bucket(key) for every key as a rebuild of the whole prefix does.
func TestMergeMatchesRebuild(t *testing.T) {
	for _, k := range []int{4, 8, 16} {
		p := lshhash.Params{Dim: 64, K: k, M: 4, Seed: 5}
		fam, err := lshhash.NewFamily(p)
		if err != nil {
			t.Fatal(err)
		}
		buckets := p.Buckets()
		for _, nOld := range []int{0, 1, buckets, 4 * buckets} {
			for _, nAdd := range []int{1, 100, 13107} {
				for _, skewed := range []bool{false, true} {
					what := fmt.Sprintf("K=%d old=%d add=%d skewed=%v", k, nOld, nAdd, skewed)
					n := nOld + nAdd
					skOld := layoutSketches(nOld, p.M, p.HalfBuckets(), skewed, uint64(n)+1)
					skAdd := layoutSketches(nAdd, p.M, p.HalfBuckets(), skewed, uint64(n)+2)

					// The static side as an earlier merge left it, then more
					// deletions on both sides.
					earlier := randomDead(nOld, 5, uint64(n)+3)
					old := rebuildReference(fam, skOld, earlier)
					dead := randomDead(n, 4, uint64(n)+4)
					for w, word := range earlier {
						dead[w] |= word
					}
					add := BuildFromSketches(fam, skAdd, 2)

					got := Merge(old, add, dead, 3).tables
					if err := ValidateTables(p, n, got); err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					want := rebuildReference(fam, concatSketches(skOld, skAdd), dead)
					sameBucketsAs(t, what, got, want)
					for l := range got {
						if len(got[l].Items) != cap(got[l].Items) || len(got[l].Items) != len(want.tables[l].Items) {
							t.Fatalf("%s: table %d holds %d items in an array of %d, rebuild keeps %d",
								what, l, len(got[l].Items), cap(got[l].Items), len(want.tables[l].Items))
						}
					}
				}
			}
		}
	}
}

// TestMergeMatchesBuild ties the copy to Build itself, hashing
// included: merging the tables of a corpus' tail into the tables of its head
// is Build over the whole corpus, compacted.
func TestMergeMatchesBuild(t *testing.T) {
	const n, head = 700, 450
	fam, mat := testSetup(t, n)
	dead := randomDead(n, 6, 17)
	want, err := Build(fam, mat, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	want.Compact(func(id uint32) bool { return dead[id>>6]>>(id&63)&1 != 0 }, 2)

	sk := fam.SketchAll(mat, sched.NewPool(2), true)
	old, err := Build(fam, mat.Prefix(head), Defaults())
	if err != nil {
		t.Fatal(err)
	}
	add := BuildFromSketches(fam, &lshhash.Sketches{M: sk.M, Data: sk.Data[head*sk.M:]}, 2)
	got := Merge(old, add, dead, 2)
	if err := ValidateTables(fam.Params(), n, got.tables); err != nil {
		t.Fatal(err)
	}
	if got.Len() != n || got.Family() != fam {
		t.Fatalf("merged index covers %d rows, want %d, under the same family", got.Len(), n)
	}
	sameBucketsAs(t, "head+tail", got.tables, want)
}

// TestMergeThenCapBuckets: with a bucket bound the merged tables are
// capped again, as the node does after every merge — every bucket obeys the
// bound, every survivor is a live id, and the outcome depends on the seed and
// nothing else.
func TestMergeThenCapBuckets(t *testing.T) {
	const r = 3
	p := lshhash.Params{Dim: 64, K: 8, M: 4, Seed: 5}
	fam, err := lshhash.NewFamily(p)
	if err != nil {
		t.Fatal(err)
	}
	const nOld, nAdd = 2000, 700
	skOld := layoutSketches(nOld, p.M, p.HalfBuckets(), true, 1)
	skAdd := layoutSketches(nAdd, p.M, p.HalfBuckets(), true, 2)
	dead := randomDead(nOld+nAdd, 7, 3)
	merge := func(workers int, seed uint64) *Static {
		old := BuildFromSketches(fam, skOld, workers)
		old.CapBuckets(r, 11, workers) // the static side is capped already
		st := Merge(old, BuildFromSketches(fam, skAdd, workers), dead, workers)
		st.CapBuckets(r, seed, workers)
		return st
	}
	a, b, c := merge(1, 77), merge(4, 77), merge(1, 78)
	if err := ValidateTables(p, nOld+nAdd, a.tables); err != nil {
		t.Fatal(err)
	}
	differs := false
	for l := range a.tables {
		for key := 0; key < p.Buckets(); key++ {
			bucket := a.tables[l].Bucket(uint32(key))
			if len(bucket) > r {
				t.Fatalf("table %d bucket %d holds %d items, bound %d", l, key, len(bucket), r)
			}
			for _, id := range bucket {
				if dead[id>>6]>>(id&63)&1 != 0 {
					t.Fatalf("table %d bucket %d kept tombstoned id %d", l, key, id)
				}
			}
			if !slices.Equal(bucket, b.tables[l].Bucket(uint32(key))) {
				t.Fatalf("table %d bucket %d differs between worker counts", l, key)
			}
			differs = differs || !slices.Equal(bucket, c.tables[l].Bucket(uint32(key)))
		}
	}
	if !differs {
		t.Fatal("another seed sampled the same survivors everywhere; the skewed corpus no longer overflows the bound")
	}
}
