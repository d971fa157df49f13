package delta

import (
	"fmt"
	"slices"
	"testing"

	"plsh/internal/bitvec"
	"plsh/internal/lshhash"
	"plsh/internal/oracle"
	"plsh/internal/sparse"
)

// requireProbeMatchesReference holds d to the bitmap's contract, every
// occupied bucket's bit set (and, once the bitmap has a bit per bucket, no
// other), and the filtered probe to the sketch oracle o over d's rows: the
// same candidates and the same collision count.
func requireProbeMatchesReference(t *testing.T, d *Table, o *oracle.Oracle, queries []sparse.Vector) {
	t.Helper()
	p := d.fam.Params()
	if want := occBits(d.n, p.K); d.occWords*64 < want {
		t.Fatalf("%d rows: %d bits per table, sizing rule wants at least %d", d.n, d.occWords*64, want)
	}
	exact := d.occWords*64 >= 1<<p.K
	for l := range d.buckets {
		for key := range d.buckets[l] {
			if !d.Occupied(l, key) {
				t.Fatalf("%d rows: table %d bucket %#x is occupied but its bit is clear", d.n, l, key)
			}
		}
		for key := uint32(0); exact && key < 1<<p.K; key++ {
			if _, ok := d.buckets[l][key]; d.Occupied(l, key) != ok {
				t.Fatalf("%d rows: exact bitmap disagrees with table %d bucket %#x", d.n, l, key)
			}
		}
	}
	seen := bitvec.New(max(d.n, 1))
	for qi, q := range queries {
		sketch := d.fam.Sketch(q)
		got, gotColl := d.Candidates(sketch, seen, nil)
		seen.ResetList(got)
		slices.Sort(got)
		want, wantColl := o.Candidates(q)
		if !slices.Equal(got, want) || gotColl != wantColl {
			t.Fatalf("%d rows, query %d: filtered probe %v (%d collisions), oracle %v (%d)",
				d.n, qi, got, gotColl, want, wantColl)
		}
	}
}

func TestOccBits(t *testing.T) {
	for _, c := range []struct{ rows, k, want int }{
		{0, 16, 64}, {4, 16, 64}, {5, 16, 128}, {100, 16, 2048}, {128, 16, 2048}, {129, 16, 4096},
		{4096, 16, 1 << 16}, {4097, 16, 1 << 16}, {1 << 20, 16, 1 << 16},
		{16, 8, 256}, {17, 8, 256}, {1000, 4, 64},
	} {
		if got := occBits(c.rows, c.k); got != c.want {
			t.Errorf("occBits(%d rows, K=%d) = %d, want %d", c.rows, c.k, got, c.want)
		}
	}
}

// TestFilteredProbeMatchesReference is the oracle test of the two-pass
// probe: every way a table comes to hold rows, at sizes on both sides of
// each bitmap-size step and of the 2^K cap, must find exactly the
// candidates the sketches fix.
func TestFilteredProbeMatchesReference(t *testing.T) {
	for _, p := range []lshhash.Params{
		{Dim: 2000, K: 8, M: 6, Seed: 42},   // cap 2^8 bits, reached at 16 rows
		{Dim: 2000, K: 16, M: 4, Seed: 7},   // cap 2^16 bits, reached at 4096 rows
		{Dim: 2000, K: 8, M: 17, Seed: 11},  // L = 136: more than one probeBlock
		{Dim: 2000, K: 4, M: 4, Seed: 3},    // 2^K under one word: the floor wins
		{Dim: 2000, K: 10, M: 5, Seed: 100}, // cap reached at 64 rows
	} {
		t.Run(fmt.Sprintf("K%dM%d", p.K, p.M), func(t *testing.T) {
			fam, err := lshhash.NewFamily(p)
			if err != nil {
				t.Fatal(err)
			}
			sizes := []int{0, 1, 3, 4, 5, 8, 9, 15, 16, 17, 63, 64, 65, 130}
			if p.K == 16 {
				sizes = append(sizes, 1024, 1025, 4095, 4096, 4097)
			}
			vs := docs(sizes[len(sizes)-1]+40, p.Dim, p.Seed)
			// Queries that sit in the table at most sizes, and 40 that never do.
			queries := append(slices.Clone(vs[:12]), vs[len(vs)-40:]...)
			vs = vs[:len(vs)-40]

			for _, n := range sizes {
				once := New(fam, 2)
				once.Insert(vs[:n])
				once.Freeze()
				requireProbeMatchesReference(t, once, oracle.New(fam, vs[:n]...), queries)

				skip := func(i int) bool { return i%3 == 1 }
				half := New(fam, 2)
				half.Insert(vs[n/2 : n])
				half.Freeze()
				head := New(fam, 2)
				head.Insert(vs[:n/2])
				head.Freeze()
				merged := Coalesce(fam, head, half, 2, skip)
				live := oracle.New(fam, vs[:n]...)
				for i := 0; i < n; i++ {
					if skip(i) {
						live.Delete(uint32(i))
					}
				}
				requireProbeMatchesReference(t, merged, live, queries)
				for l := range merged.buckets {
					for _, ids := range merged.buckets[l] {
						for _, id := range ids {
							if skip(int(id)) {
								t.Fatalf("%d rows: skipped row %d is in a bucket", n, id)
							}
						}
					}
				}
			}

			// One unfrozen table grown batch by batch across every boundary.
			grown, mirror := New(fam, 2), oracle.New(fam)
			prev := 0
			for _, n := range sizes {
				grown.Insert(vs[prev:n])
				mirror.Add(vs[prev:n]...)
				prev = n
				requireProbeMatchesReference(t, grown, mirror, queries)
			}
		})
	}
}

func TestMemoryBytesCountsBitmaps(t *testing.T) {
	fam := testFamily(t)
	d := New(fam, 2)
	if got, want := d.MemoryBytes(), int64(fam.Params().L()*8); got != want {
		t.Fatalf("empty table reports %d bytes, want its %d of floor-sized bitmaps", got, want)
	}
	d.Insert(docs(100, 2000, 5))
	without := d.MemoryBytes() - int64(len(d.occ))*8
	if len(d.occ) != fam.Params().L()*256/64 || without <= 0 {
		t.Fatalf("100 rows at K=8: %d bitmap words, %d bytes besides", len(d.occ), without)
	}
	// Besides the bitmaps: the buckets, and the one packed sketch a row.
	d.Freeze()
	buckets := int64(0)
	for l := range d.buckets {
		for _, items := range d.buckets[l] {
			buckets += int64(cap(items))*4 + 48
		}
	}
	if sketches := without - buckets; sketches != int64(100*fam.Params().SketchWords()*8) {
		t.Fatalf("100 frozen rows hold %d bytes of sketches, want %d words a row", sketches, fam.Params().SketchWords())
	}
}
