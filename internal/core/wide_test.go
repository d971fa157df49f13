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

// wideTable is Table as it stood before its entries were narrowed: the
// bitmap, the rank words and one full uint32 offset per occupied bucket, plus
// the closing one. It lives in test files only, as the reference the 16-bit
// entries are checked against; its in-place rewrites are denseTable's, which
// walk whatever entries Offsets holds.
type wideTable struct {
	Occ  []uint64
	Rank []uint32
	denseTable
}

func (t *wideTable) Bucket(key uint32) []uint32 {
	word, bit := t.Occ[key>>6], key&63
	if word>>bit&1 == 0 {
		return nil
	}
	e := t.Rank[key>>6] + uint32(bits.OnesCount64(word&(1<<bit-1)))
	return t.Items[t.Offsets[e]:t.Offsets[e+1]]
}

// wideFromKeys is denseFromKeys with the empty buckets' entries left out.
func wideFromKeys(keys []uint32, buckets int) wideTable {
	dense := denseFromKeys(keys, buckets)
	t := wideTable{Occ: make([]uint64, (buckets+63)/64), Rank: make([]uint32, (buckets+63)/64)}
	t.Items = dense.Items
	for b := 0; b < buckets; b++ {
		if b&63 == 0 {
			t.Rank[b>>6] = uint32(len(t.Offsets))
		}
		if dense.Offsets[b+1] > dense.Offsets[b] {
			t.Occ[b>>6] |= 1 << (b & 63)
			t.Offsets = append(t.Offsets, dense.Offsets[b])
		}
	}
	t.Offsets = append(t.Offsets, uint32(len(keys)))
	return t
}

// wideReference builds the reference tables of the documents sk sketches.
func wideReference(sk *lshhash.Sketches, p lshhash.Params) []wideTable {
	ref := make([]wideTable, p.L())
	keys := make([]uint32, sk.N())
	for l := range ref {
		a, b := lshhash.PairForTable(l, p.M)
		for i := range keys {
			keys[i] = sk.TableKey(i, a, b, p.K)
		}
		ref[l] = wideFromKeys(keys, p.Buckets())
	}
	return ref
}

// forcedWide returns a copy of st whose tables keep 32-bit entries whatever
// they hold — the other arm of the cold benchmark, and proof that the two
// forms answer alike.
func forcedWide(st *Static) *Static {
	out := &Static{fam: st.fam, n: st.n, tables: slices.Clone(st.tables)}
	for l := range out.tables {
		t := &out.tables[l]
		t.wide, t.base, t.off = t.AppendOffsets(nil), nil, nil
	}
	return out
}

// checkAgainstWide checks that st validates and answers Bucket(key) as ref
// does for every one of the 2^K keys of every table, in the form the data
// calls for and in the wide form alike; that its items unpack to ref's, in
// the bits the largest of them needs; and that MemoryBytes counts what the
// form holds.
func checkAgainstWide(t *testing.T, what string, st *Static, ref []wideTable) {
	t.Helper()
	p := st.fam.Params()
	if err := ValidateTables(p, st.n, st.tables); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	wide := forcedWide(st)
	if err := ValidateTables(p, st.n, wide.tables); err != nil {
		t.Fatalf("%s, forced wide: %v", what, err)
	}
	var mem int64
	for l := range ref {
		tb := &st.tables[l]
		for key := 0; key < p.Buckets(); key++ {
			want := ref[l].Bucket(uint32(key))
			if got := tb.Bucket(nil, uint32(key)); !slices.Equal(got, want) {
				t.Fatalf("%s: table %d bucket %d = %v, wide reference %v", what, l, key, got, want)
			}
			if got := wide.tables[l].Bucket(nil, uint32(key)); !slices.Equal(got, want) {
				t.Fatalf("%s, forced wide: table %d bucket %d = %v, wide reference %v", what, l, key, got, want)
			}
		}
		if !slices.Equal(tb.AppendOffsets(nil), ref[l].Offsets) {
			t.Fatalf("%s: table %d widens to other offsets than the reference's", what, l)
		}
		if !slices.Equal(tb.AppendItems(nil), ref[l].Items) {
			t.Fatalf("%s: table %d unpacks to other items than the reference's", what, l)
		}
		var union uint32
		for _, id := range ref[l].Items {
			union |= id
		}
		if want := uint(bits.Len32(union)); tb.items.width != want {
			t.Fatalf("%s: table %d packs its items in %d bits, its largest id needs %d", what, l, tb.items.width, want)
		}
		entries := int64(len(ref[l].Offsets))
		mem += int64(cap(tb.Occ))*8 + int64(cap(tb.Rank))*4 + int64(packedBytes(uint(len(ref[l].Items)), tb.items.width))
		if tb.wide != nil {
			mem += entries * 4
		} else {
			mem += entries*2 + (entries+63)/64*4
		}
	}
	if got := st.MemoryBytes(); got != mem {
		t.Fatalf("%s: MemoryBytes = %d, the layout holds %d", what, got, mem)
	}
}

func deadFunc(dead []uint64) func(uint32) bool {
	return func(id uint32) bool { return isDead(dead, id) }
}

// reread is st as the snapshot reader rebuilds it: each table's bitmap and
// rank words, then its entries and its items handed over as the plain 32-bit
// words a snapshot stores them as.
func reread(st *Static) *Static {
	out := &Static{fam: st.fam, n: st.n, tables: make([]Table, len(st.tables))}
	for l := range st.tables {
		t, r := &st.tables[l], &out.tables[l]
		r.Occ, r.Rank = slices.Clone(t.Occ), slices.Clone(t.Rank)
		r.SetOffsets(t.AppendOffsets(nil))
		r.SetItems(t.AppendItems(nil))
	}
	return out
}

// TestNarrowMatchesWideReference: out of every writer — Build, hashing
// included (TableBuilder.Finish), BuildFromSketches, the one-level build
// (GroupByKey), Merge under tombstones, Compact, and the snapshot reader's
// SetOffsets and SetItems — at 4, 8 and 16 key bits, below and past full
// occupancy, the 16-bit entries and the packed items answer every key as the
// 32-bit reference does.
func TestNarrowMatchesWideReference(t *testing.T) {
	for _, k := range []int{4, 8, 16} {
		p := lshhash.Params{Dim: 300, K: k, M: 4, Seed: 5}
		fam, err := lshhash.NewFamily(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 700, 3 * p.Buckets() / 2} {
			what := fmt.Sprintf("K=%d n=%d", k, n)
			src := rng.New(uint64(k*n) + 1)
			mat := sparse.NewMatrix(p.Dim, n, 4*n)
			for i := 0; i < n; i++ {
				// n/8 distinct documents, some repeated many times: buckets
				// from one item to dozens.
				doc := rng.New(uint64(src.Intn(1 + n/8)))
				idx := []uint32{uint32(doc.Intn(100)), 100 + uint32(doc.Intn(100)), 200 + uint32(doc.Intn(100))}
				mat.AppendRow(sparse.Vector{Idx: idx, Val: []float32{0.5, 0.7, 0.5}})
			}
			sk := fam.SketchAll(mat, sched.NewPool(2), true)

			built, err := Build(fam, mat, Defaults())
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstWide(t, what+" Build", built, wideReference(sk, p))
			checkAgainstWide(t, what+" BuildFromSketches", BuildFromSketches(fam, sk, 2), wideReference(sk, p))
			oneLevel := &Static{fam: fam, n: n, tables: make([]Table, p.L())}
			buildOneLevel(oneLevel, sk, p, sched.NewPool(2))
			checkAgainstWide(t, what+" GroupByKey", oneLevel, wideReference(sk, p))
			checkAgainstWide(t, what+" snapshot reader", reread(built), wideReference(sk, p))

			dead := randomDead(n, 3, uint64(n)+9)
			ref := wideReference(sk, p)
			for l := range ref {
				ref[l].compact(deadFunc(dead))
			}
			compacted := BuildFromSketches(fam, sk, 2)
			compacted.Compact(deadFunc(dead), 2)
			checkAgainstWide(t, what+" Compact", compacted, ref)
			checkAgainstWide(t, what+" Compact, snapshot reader", reread(compacted), ref)

			// Merge: the first two thirds as the static side, the rest as the
			// delta, tombstones on both. The reference is the whole prefix
			// built at once, then compacted.
			head := n * 2 / 3
			old := BuildFromSketches(fam, &lshhash.Sketches{M: sk.M, Data: sk.Data[:head*sk.M]}, 2)
			add := BuildFromSketches(fam, &lshhash.Sketches{M: sk.M, Data: sk.Data[head*sk.M:]}, 2)
			ref = wideReference(sk, p)
			for l := range ref {
				ref[l].compact(deadFunc(dead))
			}
			// A merge keeps an entry for every bucket either side had one
			// for; the reference drops none either.
			merged := Merge(old, add, dead, 2)
			checkAgainstWide(t, what+" Merge", merged, ref)
			checkAgainstWide(t, what+" Merge, snapshot reader", reread(merged), ref)
		}
	}
}

// formOf reports which form every table of st is in, failing if they differ.
func formOf(t *testing.T, what string, st *Static) (wide bool) {
	t.Helper()
	wide = st.tables[0].wide != nil
	for l := range st.tables {
		if got := st.tables[l].wide != nil; got != wide {
			t.Fatalf("%s: table %d wide=%v, table 0 wide=%v", what, l, got, wide)
		}
	}
	return wide
}

// TestEntryFormFollowsTheData: SetOffsets keeps 16-bit entries exactly while
// no block of 64 entries spans 2^16 items, the closing entry counted, and
// loses nothing either way.
func TestEntryFormFollowsTheData(t *testing.T) {
	// ones(n) is n one-item buckets' worth of offsets after from.
	ones := func(from uint32, n int) (offs []uint32) {
		for i := 1; i <= n; i++ {
			offs = append(offs, from+uint32(i))
		}
		return offs
	}
	for _, c := range []struct {
		name    string
		offsets []uint32
		wide    bool
	}{
		{"one bucket of 2^16-1", []uint32{0, 1<<16 - 1}, false},
		{"one bucket of 2^16", []uint32{0, 1 << 16}, true},
		{"2^16-1 across a full block", append(append([]uint32{0}, ones(0, 62)...), 1<<16-1, 1<<16+5), false},
		{"2^16 across a full block", append(append([]uint32{0}, ones(0, 62)...), 1<<16, 1<<16+5), true},
		// 70 000 items in one bucket are within reach when the next entry
		// opens a block: its base takes up the whole span.
		{"70000 in a block's last entry", append(append([]uint32{0}, ones(0, 63)...), 70063), false},
		{"70000 in a block's last entry but one", append(append([]uint32{0}, ones(0, 62)...), 70062, 70063), true},
		{"70000 in a later block", append(append([]uint32{0}, ones(0, 100)...), 70100), true},
		{"no bucket", []uint32{0}, false},
		// Nothing is lost of offsets no table could have, either.
		{"decreasing within a block", []uint32{0, 9, 4, 9}, false},
		{"decreasing below a base", []uint32{5, 3, 9}, true},
	} {
		var tb Table
		tb.SetOffsets(c.offsets)
		if got := tb.wide != nil; got != c.wide {
			t.Errorf("%s: wide=%v, want %v", c.name, got, c.wide)
		}
		if got := tb.AppendOffsets(nil); !slices.Equal(got, c.offsets) {
			t.Errorf("%s: offsets come back as %v", c.name, got)
		}
		if tb.entries() != len(c.offsets) {
			t.Errorf("%s: %d entries of %d", c.name, tb.entries(), len(c.offsets))
		}
		for e, want := range c.offsets {
			if got := tb.start(uint32(e)); got != want {
				t.Errorf("%s: entry %d starts at %d, want %d", c.name, e, got, want)
			}
		}
	}
}

// TestRetweetStormTakesTheWideForm: 70 000 copies of one document must still
// index. Every writer that meets them keeps 32-bit entries, every writer that
// sees them go narrows again, and the buckets are the reference's throughout:
// through Build, BuildFromSketches, Compact, a merge that takes a
// narrow index wide and one that brings it back.
func TestRetweetStormTakesTheWideForm(t *testing.T) {
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
	sk := fam.SketchAll(mat, sched.NewPool(2), true)
	prefix := func(n int) *lshhash.Sketches { return &lshhash.Sketches{M: sk.M, Data: sk.Data[:n*sk.M]} }
	isStorm := func(id uint32) bool { return id >= quiet }

	built, err := Build(fam, mat, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []*Static{built, BuildFromSketches(fam, sk, 2)} {
		if !formOf(t, "built", st) {
			t.Fatal("a 70 000-item bucket fit 16-bit entries")
		}
		checkAgainstWide(t, "built", st, wideReference(sk, p))
	}

	ref := wideReference(sk, p)
	for l := range ref {
		ref[l].compact(isStorm)
	}
	built.Compact(isStorm, 2)
	if formOf(t, "compacted", built) {
		t.Fatal("the storm compacted away and the entries stayed wide")
	}
	checkAgainstWide(t, "compacted", built, ref)

	// Narrow + the storm → wide; wide + a few rows, the storm tombstoned →
	// narrow.
	old := BuildFromSketches(fam, prefix(quiet), 2)
	add := BuildFromSketches(fam, &lshhash.Sketches{M: sk.M, Data: sk.Data[quiet*sk.M:]}, 2)
	if formOf(t, "quiet", old) || !formOf(t, "storm", add) {
		t.Fatal("fixture: the quiet rows should be narrow and the storm wide")
	}
	none := make([]uint64, (quiet+storm+63)/64)
	merged := Merge(old, add, none, 2)
	if !formOf(t, "merged", merged) {
		t.Fatal("merging the storm in left 16-bit entries")
	}
	checkAgainstWide(t, "narrow+storm", merged, wideReference(sk, p))

	const more = 40
	moreSk := layoutSketches(more, p.M, p.HalfBuckets(), false, 8)
	all := concatSketches(sk, moreSk)
	dead := make([]uint64, (quiet+storm+more+63)/64)
	for id := quiet; id < quiet+storm; id++ {
		dead[id>>6] |= 1 << (id & 63)
	}
	ref = wideReference(all, p)
	for l := range ref {
		ref[l].compact(deadFunc(dead))
	}
	back := Merge(merged, BuildFromSketches(fam, moreSk, 2), dead, 2)
	if formOf(t, "merged back", back) {
		t.Fatal("the storm merged out and the entries stayed wide")
	}
	checkAgainstWide(t, "wide-storm", back, ref)
}
