package core

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"plsh/internal/lshhash"
	"plsh/internal/rng"
	"plsh/internal/sched"
	"plsh/internal/sparse"
)

// ref32 is Table with nothing packed: one uint32 start per directory
// bucket plus the end of the last, and one uint32 an item, each id<<r | the
// key's low r bits. It lives in test files only, as the reference the
// packed directory and items are checked against; its in-place rewrites are
// denseTable's.
type ref32 struct {
	r uint
	denseTable
}

// Bucket returns the ids in bucket key: the items of directory bucket key>>r
// whose low r bits are key's.
func (t *ref32) Bucket(key uint32) []uint32 {
	d := key >> t.r
	low := uint32(1)<<t.r - 1
	var ids []uint32
	for _, item := range t.Items[t.Offsets[d]:t.Offsets[d+1]] {
		if item&low == key&low {
			ids = append(ids, item>>t.r)
		}
	}
	return ids
}

// compact is denseTable's compact over the ids the items carry.
func (t *ref32) compact(drop func(uint32) bool) {
	t.denseTable.compact(func(item uint32) bool { return drop(item >> t.r) })
}

// ref32FromKeys is denseFromKeys over the directory bits of keys, the items
// carrying the rest.
func ref32FromKeys(keys []uint32, k int, r uint) ref32 {
	dir := make([]uint32, len(keys))
	for i, key := range keys {
		dir[i] = key >> r
	}
	t := ref32{r: r, denseTable: denseFromKeys(dir, 1<<(uint(k)-r))}
	for i, id := range t.Items {
		t.Items[i] = id<<r | keys[id]&(1<<r-1)
	}
	return t
}

// reference32 builds the reference tables of the documents sk sketches, at
// the directory bits of n documents.
func reference32(sk *lshhash.Sketches, p lshhash.Params, n int) []ref32 {
	ref := make([]ref32, p.L())
	keys := make([]uint32, sk.N())
	for l := range ref {
		a, b := lshhash.PairForTable(l, p.M)
		for i := range keys {
			keys[i] = sk.TableKey(i, a, b)
		}
		ref[l] = ref32FromKeys(keys, p.K, uint(p.K-DirectoryBits(n, p.K)))
	}
	return ref
}

// widthOf is the bits the largest of vals needs.
func widthOf(vals []uint32) uint {
	var union uint32
	for _, v := range vals {
		union |= v
	}
	return uint(bits.Len32(union))
}

// spanWidth is the bits the widest 64-bucket block of the bucket starts
// offs spans takes: a directory's offset width.
func spanWidth(offs []uint32) uint {
	var widest uint32
	for blk := 0; blk < len(offs)-1; blk += 64 {
		widest = max(widest, offs[min(blk+64, len(offs)-1)]-offs[blk])
	}
	return uint(bits.Len32(widest))
}

// checkAgainst32 checks that st validates; that every directory bucket's
// bounds are the reference's [lo, hi) and every one of the 2^K keys of
// every table answers Bucket(key) as ref does; that its items carry as many
// key bits as ref's and unpack to ref's, in the bits the largest of them
// needs, under offsets as wide as the widest block's span needs; and that
// MemoryBytes counts what the directory and the items hold.
func checkAgainst32(t *testing.T, what string, st *Static, ref []ref32) {
	t.Helper()
	p := st.fam.Params()
	if err := ValidateTables(p, st.n, st.tables); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	mem := int64(st.n*p.SketchWords()) * 8 // the sign-bit column
	for l := range ref {
		tb, r := &st.tables[l], &ref[l]
		if tb.r != r.r {
			t.Fatalf("%s: table %d's items carry %d key bits, the reference's %d", what, l, tb.r, r.r)
		}
		for d := range len(r.Offsets) - 1 {
			if lo, hi := tb.bounds(uint32(d) << r.r); lo != r.Offsets[d] || hi != r.Offsets[d+1] {
				t.Fatalf("%s: table %d directory bucket %d = [%d, %d), 32-bit reference [%d, %d)", what, l, d, lo, hi, r.Offsets[d], r.Offsets[d+1])
			}
		}
		for key := 0; key < p.Buckets(); key++ {
			want := r.Bucket(uint32(key))
			if got := tb.Bucket(nil, uint32(key)); !slices.Equal(got, want) {
				t.Fatalf("%s: table %d bucket %d = %v, 32-bit reference %v", what, l, key, got, want)
			}
		}
		if !slices.Equal(tb.AppendItems(nil), r.Items) {
			t.Fatalf("%s: table %d unpacks to other items than the reference's", what, l)
		}
		if want := spanWidth(r.Offsets); tb.dir.width != want {
			t.Fatalf("%s: table %d packs its offsets in %d bits, its widest block needs %d", what, l, tb.dir.width, want)
		}
		if want := widthOf(r.Items); tb.items.width != want {
			t.Fatalf("%s: table %d packs its items in %d bits, its largest needs %d", what, l, tb.items.width, want)
		}
		blocks := uint(len(r.Offsets)-1+63) / 64
		mem += int64(dirBytes(blocks, tb.dir.width) + packedBytes(uint(len(r.Items)), tb.items.width))
	}
	if got := st.MemoryBytes(); got != mem {
		t.Fatalf("%s: MemoryBytes = %d, the layout holds %d", what, got, mem)
	}
}

func deadFunc(dead []uint64) func(uint32) bool {
	return func(id uint32) bool { return isDead(dead, id) }
}

// reread is st as a node that reads its snapshot back: each table encoded as
// a snapshot stores it and decoded (AppendEncoded, DecodeTable).
func reread(t *testing.T, st *Static) *Static {
	t.Helper()
	out := &Static{fam: st.fam, n: st.n, tables: make([]Table, len(st.tables))}
	for l := range st.tables {
		var err error
		if out.tables[l], err = DecodeTable(st.tables[l].AppendEncoded(nil)); err != nil {
			t.Fatalf("table %d: %v", l, err)
		}
	}
	out.signs = signsFromTables(st.fam.Params(), st.n, out.tables, 1)
	return out
}

// refSizes are the row counts TestPackedMatches32BitReference builds at
// under k-bit keys: one row, and 2^j − 1, 2^j and 2^j + 1 rows for j =
// k/2 + 2, 3k/4 + 2 and k + 1, so that the directory (⌈log2 n⌉ − 2 key bits,
// DirectoryBits) indexes k/2 key bits, a middle count and all k, and each
// triple crosses a power of two — the last one into b = k. At k = 4 the
// last two triples are one. At k = 16 the last triple (2^17 ± 1 rows) is
// left out: b = k is reached at k = 4 and 8 already, and its 2^17 rows
// took most of the test's time.
func refSizes(k int) []int {
	js := []int{k/2 + 2, 3*k/4 + 2, k + 1}
	if k == 16 {
		js = js[:2]
	}
	ns := []int{1}
	for _, j := range js {
		ns = append(ns, 1<<j-1, 1<<j, 1<<j+1)
	}
	return slices.Compact(ns)
}

// TestPackedMatches32BitReference: out of every writer — Build, hashing
// included (TableBuilder.Finish), BuildFromSketches, the one-level build
// (GroupByKey), Merge under tombstones, Compact, and the snapshot reader's
// DecodeTable — at 4, 8 and 16 key bits, at row counts that put the
// directory at K/2 key bits, between, and at K, the packed directory and
// items answer every key as the 32-bit reference does, bucket bounds for
// bucket bounds and item for item.
func TestPackedMatches32BitReference(t *testing.T) {
	for _, k := range []int{4, 8, 16} {
		p := lshhash.Params{Dim: 300, K: k, M: 4, Seed: 5}
		fam, err := lshhash.NewFamily(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range refSizes(k) {
			what := fmt.Sprintf("K=%d n=%d b=%d", k, n, DirectoryBits(n, k))
			src := rng.New(uint64(k*n) + 1)
			mat := sparse.NewMatrix(p.Dim, n, 4*n)
			for i := 0; i < n; i++ {
				// n/8 distinct documents, some repeated many times: buckets
				// from one item to dozens.
				doc := rng.New(uint64(src.Intn(1 + n/8)))
				idx := []uint32{uint32(doc.Intn(100)), 100 + uint32(doc.Intn(100)), 200 + uint32(doc.Intn(100))}
				mat.AppendRow(sparse.Vector{Idx: idx, Val: []float32{0.5, 0.7, 0.5}})
			}
			sk := fam.SketchAll(mat, sched.NewPool(2))

			built, err := Build(fam, mat, Defaults())
			if err != nil {
				t.Fatal(err)
			}
			checkAgainst32(t, what+" Build", built, reference32(sk, p, n))
			checkAgainst32(t, what+" BuildFromSketches", BuildFromSketches(fam, sk, 2), reference32(sk, p, n))
			checkAgainst32(t, what+" GroupByKey", groupByKey(fam, sk), reference32(sk, p, n))
			checkAgainst32(t, what+" snapshot reader", reread(t, built), reference32(sk, p, n))

			dead := randomDead(n, 3, uint64(n)+9)
			ref := reference32(sk, p, n)
			for l := range ref {
				ref[l].compact(deadFunc(dead))
			}
			compacted := BuildFromSketches(fam, sk, 2)
			compacted.Compact(deadFunc(dead), 2)
			checkAgainst32(t, what+" Compact", compacted, ref)
			checkAgainst32(t, what+" Compact, snapshot reader", reread(t, compacted), ref)

			// Merge: the first two thirds as the static side, at their own
			// directory bits, the rest as the delta, tombstones on both. The
			// reference is the whole prefix built at once, then compacted.
			head := n * 2 / 3
			old := BuildFromSketches(fam, rowsOf(fam, sk, 0, head), 2)
			merged := Merge(old, rowsOf(fam, sk, head, sk.N()), dead, 2)
			checkAgainst32(t, what+" Merge", merged, ref)
			checkAgainst32(t, what+" Merge, snapshot reader", reread(t, merged), ref)
		}
	}
}

// TestRetweetStormIndexes: 70 000 copies of one document must still index,
// its bucket's 70 000 items putting every table's offsets at 17 bits, and
// the buckets are the reference's through Build, BuildFromSketches, Compact,
// a merge that brings the storm in and one that tombstones it out.
func TestRetweetStormIndexes(t *testing.T) {
	const quiet, storm = 900, 70000
	p := lshhash.Params{Dim: 300, K: 8, M: 4, Seed: 5}
	fam, err := lshhash.NewFamily(p)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(3)
	mat := sparse.NewMatrix(p.Dim, quiet+storm, 3*(quiet+storm))
	for i := 0; i < quiet; i++ {
		idx := []uint32{uint32(src.Intn(100)), 100 + uint32(src.Intn(100)), 200 + uint32(src.Intn(100))}
		mat.AppendRow(sparse.Vector{Idx: idx, Val: []float32{0.5, 0.7, 0.5}})
	}
	for i := 0; i < storm; i++ {
		mat.AppendRow(sparse.Vector{Idx: []uint32{7, 150, 299}, Val: []float32{0.6, 0.6, 0.5}})
	}
	sk := fam.SketchAll(mat, sched.NewPool(2))
	isStorm := func(id uint32) bool { return id >= quiet }

	built, err := Build(fam, mat, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []*Static{built, BuildFromSketches(fam, sk, 2)} {
		if w := st.tables[0].dir.width; w != 17 {
			t.Fatalf("built: offsets of %d bits over %d items, want 17", w, quiet+storm)
		}
		checkAgainst32(t, "built", st, reference32(sk, p, quiet+storm))
	}

	ref := reference32(sk, p, quiet+storm)
	for l := range ref {
		ref[l].compact(isStorm)
	}
	built.Compact(isStorm, 2)
	checkAgainst32(t, "compacted", built, ref)

	old := BuildFromSketches(fam, rowsOf(fam, sk, 0, quiet), 2)
	none := make([]uint64, (quiet+storm+63)/64)
	merged := Merge(old, rowsOf(fam, sk, quiet, sk.N()), none, 2)
	checkAgainst32(t, "quiet+storm", merged, reference32(sk, p, quiet+storm))

	const more = 40
	moreSk := layoutSketches(p, more, false, 8)
	all := concatSketches(fam, sk, moreSk)
	dead := make([]uint64, (quiet+storm+more+63)/64)
	for id := quiet; id < quiet+storm; id++ {
		dead[id>>6] |= 1 << (id & 63)
	}
	ref = reference32(all, p, quiet+storm+more)
	for l := range ref {
		ref[l].compact(deadFunc(dead))
	}
	checkAgainst32(t, "storm tombstoned", Merge(merged, moreSk, dead, 2), ref)
}
