package core

import (
	"testing"

	"plsh/internal/corpus"
	"plsh/internal/lshhash"
	"plsh/internal/sched"
)

// Compact removes every item for which drop reports true from every bucket,
// in place, rewriting the bucket starts to stay consistent. Len is unchanged: item IDs
// keep their meaning, only bucket membership shrinks. It is the reference
// Merge is checked against — Build followed by Compact is what a merge of
// the same rows under the same tombstones must hold — and so lives in test
// files only: no production code writes an index after it is returned. drop
// may be called concurrently (tables compact in parallel).
func (s *Static) Compact(drop func(id uint32) bool, workers int) {
	pool := sched.NewPool(workers)
	pool.Run(len(s.tables), func(l, _ int) {
		t := &s.tables[l]
		offs, items := t.appendStarts(nil), t.AppendItems(nil)
		var w uint32
		for b := 0; b < len(offs)-1; b++ {
			lo, hi := offs[b], offs[b+1]
			offs[b] = w
			// w never exceeds the read cursor, so the in-place copy is safe.
			for _, item := range items[lo:hi] {
				if !drop(item >> t.r) {
					items[w] = item
					w++
				}
			}
		}
		offs[len(offs)-1] = w
		*t = TableFromWords(offs, items[:w], t.r)
	})
}

// Compact must drop exactly the requested rows from every bucket of every
// table, preserve intra-bucket order of the survivors, and leave the
// directory consistent.
func TestStaticCompact(t *testing.T) {
	const n, dim = 500, 2000
	col := corpus.Generate(corpus.Twitter(n, dim, 7))
	fam, err := lshhash.NewFamily(lshhash.Params{Dim: dim, K: 8, M: 6, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Build(fam, col.Mat, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	drop := func(id uint32) bool { return id%3 == 0 }

	// Expected bucket contents: the pre-compact buckets with dropped rows
	// filtered out.
	buckets := fam.Params().Buckets()
	want := make([][][]uint32, st.NumTables())
	for l := range want {
		tab := st.Table(l)
		want[l] = make([][]uint32, buckets)
		for b := 0; b < buckets; b++ {
			for _, id := range tab.Bucket(nil, uint32(b)) {
				if !drop(id) {
					want[l][b] = append(want[l][b], id)
				}
			}
		}
	}

	st.Compact(drop, 4)

	if st.Len() != n {
		t.Fatalf("Compact changed Len: %d", st.Len())
	}
	if err := validateTables(fam.Params(), n, st.tables); err != nil {
		t.Fatal(err)
	}
	for l := 0; l < st.NumTables(); l++ {
		tab := st.Table(l)
		for b := 0; b < buckets; b++ {
			got := tab.Bucket(nil, uint32(b))
			if len(got) != len(want[l][b]) {
				t.Fatalf("table %d bucket %d: %d items, want %d", l, b, len(got), len(want[l][b]))
			}
			for i := range got {
				if got[i] != want[l][b][i] {
					t.Fatalf("table %d bucket %d item %d: %d, want %d", l, b, i, got[i], want[l][b][i])
				}
			}
		}
	}
}

// A compacted index queried through an engine must behave exactly like
// filtering the dropped rows from the uncompacted answers.
func TestCompactMatchesFiltering(t *testing.T) {
	const n, dim = 400, 2000
	col := corpus.Generate(corpus.Twitter(n, dim, 11))
	fam, err := lshhash.NewFamily(lshhash.Params{Dim: dim, K: 8, M: 6, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	build := func() *Static {
		st, err := Build(fam, col.Mat, Defaults())
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	drop := func(id uint32) bool { return id%7 == 2 }

	plain := NewEngine(build(), col.Mat, QueryDefaults())
	compacted := build()
	compacted.Compact(drop, 0)
	ceng := NewEngine(compacted, col.Mat, QueryDefaults())

	for qi := 0; qi < n; qi += 29 {
		q := col.Mat.Row(qi)
		var want []Neighbor
		for _, nb := range searchOne(plain, q) {
			if !drop(nb.ID) {
				want = append(want, nb)
			}
		}
		got := searchOne(ceng, q)
		SortNeighbors(want)
		SortNeighbors(got)
		if len(got) != len(want) {
			t.Fatalf("query %d: %d answers, want %d", qi, len(got), len(want))
		}
		for i := range got {
			if got[i].ID != want[i].ID {
				t.Fatalf("query %d answer %d: %d, want %d", qi, i, got[i].ID, want[i].ID)
			}
		}
	}
}
