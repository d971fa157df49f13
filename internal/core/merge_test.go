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

// concatSketches returns a's rows then b's, in a new array.
func concatSketches(fam *lshhash.Family, a, b *lshhash.Sketches) *lshhash.Sketches {
	out := fam.Params().NewSketches(0)
	out.Data = slices.Concat(a.Data, b.Data)
	return out
}

// rowsOf returns a copy of rows [lo, hi) of sk.
func rowsOf(fam *lshhash.Family, sk *lshhash.Sketches, lo, hi int) *lshhash.Sketches {
	w := fam.Params().SketchWords()
	out := fam.Params().NewSketches(hi - lo)
	copy(out.Data, sk.Data[lo*w:hi*w])
	return out
}

// sameBucketsAs checks Bucket(key) of got against want for every one of the
// 2^K keys of every table.
func sameBucketsAs(t *testing.T, what string, got []Table, want *Static) {
	t.Helper()
	buckets := want.fam.Params().Buckets()
	for l := range got {
		for key := 0; key < buckets; key++ {
			g, w := got[l].Bucket(nil, uint32(key)), want.tables[l].Bucket(nil, uint32(key))
			if !slices.Equal(g, w) {
				t.Fatalf("%s: table %d bucket %d = %v, rebuild has %v", what, l, key, g, w)
			}
		}
	}
}

// TestMergeMatchesRebuild: for static sides from empty to four rows a
// bucket, delta sides from none to a merge trigger's worth, uniform and
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
			for _, nAdd := range []int{0, 1, 100, 13107} {
				for _, skewed := range []bool{false, true} {
					what := fmt.Sprintf("K=%d old=%d add=%d skewed=%v", k, nOld, nAdd, skewed)
					n := nOld + nAdd
					skOld := layoutSketches(p, nOld, skewed, uint64(n)+1)
					skAdd := layoutSketches(p, nAdd, skewed, uint64(n)+2)

					// The static side as an earlier merge left it, then more
					// deletions on both sides.
					earlier := randomDead(nOld, 5, uint64(n)+3)
					old := rebuildReference(fam, skOld, earlier)
					dead := randomDead(n, 4, uint64(n)+4)
					for w, word := range earlier {
						dead[w] |= word
					}
					got := Merge(old, skAdd, dead, 3).tables
					if err := validateTables(p, n, got); err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					want := rebuildReference(fam, concatSketches(fam, skOld, skAdd), dead)
					sameBucketsAs(t, what, got, want)
					for l := range got {
						g := &got[l]
						if cap(g.items.buf) != packedBytes(uint(g.n), g.items.width) || g.n != want.tables[l].n {
							t.Fatalf("%s: table %d holds %d items in an array of %d bytes, rebuild keeps %d",
								what, l, g.n, cap(g.items.buf), want.tables[l].n)
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

	sk := fam.SketchAll(mat, sched.NewPool(2))
	old, err := Build(fam, mat.Prefix(head), Defaults())
	if err != nil {
		t.Fatal(err)
	}
	got := Merge(old, rowsOf(fam, sk, head, sk.N()), dead, 2)
	if err := validateTables(fam.Params(), n, got.tables); err != nil {
		t.Fatal(err)
	}
	if got.Len() != n || got.Family() != fam {
		t.Fatalf("merged index covers %d rows, want %d, under the same family", got.Len(), n)
	}
	sameBucketsAs(t, "head+tail", got.tables, want)
}
