package core

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"plsh/internal/lshhash"
	"plsh/internal/rng"
	"plsh/internal/sched"
)

// items32Of unpacks every table of st to one 32-bit word an item: the items
// as a table held them before they were packed, each still carrying its
// table's low key bits. It lives in test files only, as the other arm of the
// cold benchmark.
func items32Of(st *Static) [][]uint32 {
	out := make([][]uint32, len(st.tables))
	for l := range st.tables {
		out[l] = st.tables[l].AppendItems(nil)
	}
	return out
}

// probeMarkItems32 is ProbeMark as it ran over 32-bit items: the same staged
// directory lookups, then the mark pass over items[l][lo:hi], with the same
// computed match on the low key bits.
func probeMarkItems32(tables []Table, items [][]uint32, pairs []lshhash.Pair, sketch []uint32, half uint, lo, hi []uint32, words []uint64) int {
	lo, hi = stageBuckets(tables, pairs, sketch, half, lo, hi)
	collisions := 0
	for l := range tables {
		mul, want := tables[l].keyMatch(pairs[l].Key(sketch, half))
		var n uint64
		for _, item := range items[l][lo[l]:hi[l]] {
			prod := uint64(item) * mul
			id, hit := uint32(prod>>32), matches(uint32(prod), want)
			words[id>>6] |= hit << (id & 63)
			n += hit
		}
		collisions += int(n)
	}
	return collisions
}

// checkPacked checks that p is vals packed in width bits: exactly the packed
// bits plus the zero padding, every value reading back through at.
func checkPacked(t *testing.T, what string, p packed, vals []uint32, width uint) {
	t.Helper()
	if p.width != width {
		t.Fatalf("%s: width %d, want %d", what, p.width, width)
	}
	packedLen := (uint(len(vals))*width + 7) / 8
	if len(p.buf) != int(packedLen)+packedPad || cap(p.buf) != len(p.buf) {
		t.Fatalf("%s: array of %d bytes (cap %d), want %d packed + %d padding", what, len(p.buf), cap(p.buf), packedLen, packedPad)
	}
	for _, b := range p.buf[packedLen:] {
		if b != 0 {
			t.Fatalf("%s: padding % x is not zero", what, p.buf[packedLen:])
		}
	}
	for i, v := range vals {
		if got := p.at(uint32(i)); got != v {
			t.Fatalf("%s: value %d reads %d, want %d", what, i, got, v)
		}
	}
}

// TestItemsAtEveryWidth: at every width from 1 to 32 bits, ids up to
// 2^w − 1 pack in w bits and 2^w takes one more; every id reads back through
// the probe's accessor and through AppendItems, the last one included
// whatever bit of its byte it starts at; the array is exactly the packed bits
// plus the zero padding. An empty table and a table of id 0 alone hold no
// bits at all.
func TestItemsAtEveryWidth(t *testing.T) {
	check := func(what string, ids []uint32, width uint) {
		t.Helper()
		tb := TableFromWords([]uint32{0, uint32(len(ids))}, ids, 0)
		if tb.n != uint32(len(ids)) {
			t.Fatalf("%s: %d items, want %d", what, tb.n, len(ids))
		}
		checkPacked(t, what, tb.items, ids, width)
		if got := tb.AppendItems(nil); !slices.Equal(got, ids) {
			t.Fatalf("%s: AppendItems = %v, want %v", what, got, ids)
		}
		if got := tb.AppendItems([]uint32{7}); len(got) != len(ids)+1 || got[0] != 7 {
			t.Fatalf("%s: AppendItems does not append", what)
		}
	}
	check("empty", nil, 0)
	check("id 0 alone", []uint32{0, 0, 0}, 0)

	src := rng.New(1)
	for w := uint(1); w <= 32; w++ {
		top := uint32(1<<w - 1)
		// Nine lengths put the last id at nine different bit offsets of its
		// byte at an odd width, and the largest id last puts its high bits as
		// far into the padding as they reach.
		for n := 1; n <= 9; n++ {
			ids := make([]uint32, n)
			for i := range ids {
				ids[i] = src.Uint32() & top
			}
			ids[n-1] = top
			check(fmt.Sprintf("w=%d n=%d, 2^w-1 last", w, n), ids, w)
			ids[n-1] = src.Uint32() & top
			ids[src.Intn(n)] = top
			check(fmt.Sprintf("w=%d n=%d", w, n), ids, w)
			if w < 32 {
				ids[n-1] = top + 1
				check(fmt.Sprintf("w=%d n=%d, 2^w last", w, n), ids, w+1)
			}
		}
	}
}

// TestOffsetsAtEveryWidth: at every width from 0 to 32 bits, a directory
// whose widest block spans 2^w − 1 items packs its offsets in w bits and one
// spanning 2^w in one more; every bucket's bounds read back through bounds,
// an empty one's as two equal ones, and the whole directory through
// appendStarts. The spans sit in the first, a middle or the last of
// three blocks, and the buckets before and after the widest one are empty
// or not, so the base each bucket adds is 0, below the span or near 2^32.
func TestOffsetsAtEveryWidth(t *testing.T) {
	check := func(what string, starts []uint32, width uint) {
		t.Helper()
		tb := TableFromWords(starts, nil, 0)
		if tb.nBlocks != uint32(len(starts)-1)/64 || tb.dir.width != width {
			t.Fatalf("%s: %d blocks of %d-bit offsets, want %d of %d", what, tb.nBlocks, tb.dir.width, (len(starts)-1)/64, width)
		}
		if want := dirBytes(uint(tb.nBlocks), width); len(tb.dir.buf) != want || cap(tb.dir.buf) != want {
			t.Fatalf("%s: directory of %d bytes (cap %d), want %d", what, len(tb.dir.buf), cap(tb.dir.buf), want)
		}
		for d := range len(starts) - 1 {
			if lo, hi := tb.bounds(uint32(d)); lo != starts[d] || hi != starts[d+1] {
				t.Fatalf("%s: bucket %d bounds [%d, %d), want [%d, %d)", what, d, lo, hi, starts[d], starts[d+1])
			}
		}
		if got := tb.appendStarts(nil); !slices.Equal(got, starts) {
			t.Fatalf("%s: appendStarts = %v, want %v", what, got, starts)
		}
		if got := tb.appendStarts([]uint32{7}); len(got) != len(starts)+1 || got[0] != 7 {
			t.Fatalf("%s: appendStarts does not append", what)
		}
	}

	src := rng.New(2)
	for w := uint(0); w <= 32; w++ {
		spans := []uint64{1<<w - 1, 1 << w}
		if w == 32 {
			spans = spans[:1]
		}
		for _, span := range spans {
			for wide := range 3 {
				// Three blocks, the widest wide-th: its buckets start at
				// sorted draws below its span, and each other block spans
				// at most 2^31 less everything before it, none of it wider.
				starts := make([]uint32, 3*64+1)
				var base uint64
				for blk := range 3 {
					s := starts[64*blk : 64*blk+65]
					top := span
					if blk != wide {
						top = min(span, uint64(src.Uint32()%(1<<31))) >> (src.Uint32() % 2 * 31)
					}
					top = min(top, 1<<32-1-base)
					for j := 1; j < 64; j++ {
						s[j] = uint32(src.Uint64() % (top + 1))
					}
					s[0], s[64] = 0, uint32(top)
					slices.Sort(s[1:64])
					for j := range s {
						s[j] += uint32(base)
					}
					base += top
				}
				widest := uint64(0)
				for blk := range 3 {
					widest = max(widest, uint64(starts[64*blk+64]-starts[64*blk]))
				}
				check(fmt.Sprintf("w=%d span %d in block %d", w, span, wide), starts, uint(bits.Len64(widest)))
			}
		}
	}
}

// TestMergeCrossesAPowerOfTwo: the items of a merge are as wide as its
// largest live item, not as its inputs were — under K = 8, where every table
// over 1 000 rows indexes all 8 key bits, a merge that takes the ids past
// 2^10 widens them from 10 bits to 11, and one whose new rows are all
// tombstoned keeps 10 — and its buckets are the rebuild's either way. Under
// K = 16 the directory follows the rows across the power of two
// (DirectoryBits, ⌈log2 n⌉ − 2): 4 000 rows index 10 key bits, and a merge
// to 4 400 refines them to 11, tombstones on both sides, into the buckets a
// build over the live rows holds; a static whose tables index all 16 bits,
// more than the rule gives its rows — as tables built before the directory
// followed N did — keeps them through a merge.
func TestMergeCrossesAPowerOfTwo(t *testing.T) {
	p := lshhash.Params{Dim: 64, K: 8, M: 4, Seed: 5}
	fam, err := lshhash.NewFamily(p)
	if err != nil {
		t.Fatal(err)
	}
	const nOld, nAdd = 1000, 100
	skOld := layoutSketches(p, nOld, false, 1)
	skAdd := layoutSketches(p, nAdd, false, 2)
	old := BuildFromSketches(fam, skOld, 2)
	for l := range old.tables {
		if w := old.tables[l].items.width; w != 10 {
			t.Fatalf("fixture: table %d of %d rows packs %d bits", l, nOld, w)
		}
	}
	addDead := make([]uint64, (nOld+nAdd+63)/64)
	for id := nOld; id < nOld+nAdd; id++ {
		addDead[id>>6] |= 1 << (id & 63)
	}
	for _, c := range []struct {
		name  string
		dead  []uint64
		width uint
	}{
		{"past 2^10", randomDead(nOld+nAdd, 5, 3), 11},
		{"new rows all tombstoned", addDead, 10},
	} {
		merged := Merge(old, skAdd, c.dead, 2)
		if err := validateTables(p, nOld+nAdd, merged.tables); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for l := range merged.tables {
			if w := merged.tables[l].items.width; w != c.width {
				t.Fatalf("%s: table %d packs %d bits, want %d", c.name, l, w, c.width)
			}
		}
		sameBucketsAs(t, c.name, merged.tables, rebuildReference(fam, concatSketches(fam, skOld, skAdd), c.dead))
	}

	p16 := lshhash.Params{Dim: 64, K: 16, M: 4, Seed: 5}
	fam16, err := lshhash.NewFamily(p16)
	if err != nil {
		t.Fatal(err)
	}
	const nOld16, nAdd16 = 4000, 400
	bOld, bMerge := DirectoryBits(nOld16, p16.K), DirectoryBits(nOld16+nAdd16, p16.K)
	if bOld != 10 || bMerge != 11 {
		t.Fatalf("fixture: %d rows index %d key bits and %d rows %d, want 10 and 11", nOld16, bOld, nOld16+nAdd16, bMerge)
	}
	skOld = layoutSketches(p16, nOld16, false, 3)
	skAdd = layoutSketches(p16, nAdd16, false, 4)
	// The static side as an earlier merge left it, then more deletions on
	// both sides.
	earlier := randomDead(nOld16, 5, 6)
	dead := randomDead(nOld16+nAdd16, 4, 5)
	for w, word := range earlier {
		dead[w] |= word
	}
	want := rebuildReference(fam16, concatSketches(fam16, skOld, skAdd), dead)
	// The same rows at b = K, as tables built before the directory
	// followed N were.
	full := buildSketches(fam16, skOld, 0, 2)
	for _, c := range []struct {
		name         string
		old          *Static
		rOld, rMerge uint
	}{
		{"b grows from 10 to 11", rebuildReference(fam16, skOld, earlier), uint(p16.K - bOld), uint(p16.K - bMerge)},
		{"v3 static at b = K", full, 0, 0},
	} {
		if c.old.tables[0].r != c.rOld {
			t.Fatalf("%s: fixture's items carry %d key bits, want %d", c.name, c.old.tables[0].r, c.rOld)
		}
		merged := Merge(c.old, skAdd, dead, 2)
		if err := validateTables(p16, nOld16+nAdd16, merged.tables); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for l := range merged.tables {
			if got := merged.tables[l].r; got != c.rMerge {
				t.Fatalf("%s: table %d's items carry %d key bits, want %d", c.name, l, got, c.rMerge)
			}
		}
		sameBucketsAs(t, c.name, merged.tables, want)
	}
}

// TestProbeMarkMatchesItems32: the probe over packed items marks the same
// bits and counts the same collisions as the same probe over 32-bit items,
// for queries from the index and for fresh ones.
func TestProbeMarkMatchesItems32(t *testing.T) {
	f := newQueryFixture(t, 1500, 64)
	tables, pairs := f.st.tables, f.fam.Pairs()
	items := items32Of(f.st)
	half := uint(f.fam.Params().K / 2)
	lo, hi, first := make([]uint32, len(tables)), make([]uint32, len(tables)), make([]uint32, len(tables))
	got, want := make([]uint64, (f.st.Len()+63)/64), make([]uint64, (f.st.Len()+63)/64)
	queries := slices.Clone(f.queries)
	for i := 0; i < f.mat.Rows(); i += 97 {
		queries = append(queries, f.mat.Row(i))
	}
	for i, q := range queries {
		sketch := f.fam.Sketch(q)
		clear(got)
		clear(want)
		n := ProbeMark(tables, pairs, sketch, half, lo, hi, first, got)
		n32 := probeMarkItems32(tables, items, pairs, sketch, half, lo, hi, want)
		if n != n32 || !slices.Equal(got, want) {
			t.Fatalf("query %d: %d collisions over packed items, %d over 32-bit ones, same marks: %v", i, n, n32, slices.Equal(got, want))
		}
	}
}

// TestProbeKernelsMatchNaiveAtEveryShift: over tables whose items carry 0,
// 1, 3 and K/2 key bits, ProbeMark counts the collisions and marks the
// candidates the sketch oracle finds, for queries from the index and for
// fresh ones.
func TestProbeKernelsMatchNaiveAtEveryShift(t *testing.T) {
	f := newQueryFixture(t, 600, 40)
	half := uint(f.fam.Params().K / 2)
	sk := f.fam.SketchAll(f.mat, sched.NewPool(2))
	o := f.oracle()
	queries := slices.Clone(f.queries)
	for i := 0; i < f.mat.Rows(); i += 53 {
		queries = append(queries, f.mat.Row(i))
	}
	for _, r := range []uint{0, 1, 3, half} {
		st := buildSketches(f.fam, sk, r, 2)
		pairs := f.fam.Pairs()
		lo, hi, first := make([]uint32, len(st.tables)), make([]uint32, len(st.tables)), make([]uint32, len(st.tables))
		words := make([]uint64, (st.Len()+63)/64)
		for qi, q := range queries {
			sketch := f.fam.Sketch(q)
			want, collisions := o.Candidates(q)
			what := fmt.Sprintf("r=%d query %d", r, qi)

			n := ProbeMark(st.tables, pairs, sketch, half, lo, hi, first, words)
			var got []uint32
			for w, word := range words {
				for ; word != 0; word &= word - 1 {
					got = append(got, uint32(w<<6+bits.TrailingZeros64(word)))
				}
			}
			clear(words)
			if n != collisions || !slices.Equal(got, want) {
				t.Fatalf("%s: ProbeMark counts %d collisions and finds %v; the scan, %d and %v", what, n, got, collisions, want)
			}
		}
	}
}
