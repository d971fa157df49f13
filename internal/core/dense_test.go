package core

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"reflect"
	"slices"
	"testing"

	"plsh/internal/lshhash"
	"plsh/internal/rng"
)

// denseTable is the layout Table had before the occupancy directory: the
// paper's Fig. 3a, a 2^k+1 offsets array indexed by key. It lives in test
// files only, as the reference the compact layout is checked against and
// the other arm of the cold benchmark.
type denseTable struct {
	Offsets []uint32
	Items   []uint32
}

func (t *denseTable) Bucket(key uint32) []uint32 {
	return t.Items[t.Offsets[key]:t.Offsets[key+1]]
}

// denseFromKeys is a stable counting sort of 0..len(keys)-1 by key: the
// specification of what every builder arm must produce.
func denseFromKeys(keys []uint32, buckets int) denseTable {
	t := denseTable{Offsets: make([]uint32, buckets+1), Items: make([]uint32, len(keys))}
	for _, k := range keys {
		t.Offsets[k+1]++
	}
	for b := 0; b < buckets; b++ {
		t.Offsets[b+1] += t.Offsets[b]
	}
	cursor := slices.Clone(t.Offsets[:buckets])
	for i, k := range keys {
		t.Items[cursor[k]] = uint32(i)
		cursor[k]++
	}
	return t
}

// denseOf expands a compact table to the dense layout over every one of its
// 2^k keys, its items unpacked to their ids.
func denseOf(t *Table, buckets int) denseTable {
	d := denseTable{Offsets: make([]uint32, buckets+1)}
	for key := 0; key < buckets; key++ {
		d.Offsets[key] = uint32(len(d.Items))
		d.Items = t.Bucket(d.Items, uint32(key))
	}
	d.Offsets[buckets] = uint32(len(d.Items))
	return d
}

// compact is Static.Compact as it ran over the dense layout, one table at a
// time.
func (t *denseTable) compact(drop func(uint32) bool) {
	var w uint32
	for b := 0; b < len(t.Offsets)-1; b++ {
		lo, hi := t.Offsets[b], t.Offsets[b+1]
		t.Offsets[b] = w
		for _, id := range t.Items[lo:hi] {
			if !drop(id) {
				t.Items[w] = id
				w++
			}
		}
	}
	t.Offsets[len(t.Offsets)-1] = w
	t.Items = t.Items[:w]
}

// probeMarkDense is ProbeMark as it ran over the dense layout: one staged
// load of each bucket's two adjacent offsets, then the mark pass.
func probeMarkDense(tables []denseTable, pairs []lshhash.Pair, sketch []uint32, half uint, lo, hi []uint32, words []uint64) int {
	pairs = pairs[:len(tables)]
	lo = lo[:len(tables)]
	hi = hi[:len(tables)]
	for l := range tables {
		offs := tables[l].Offsets
		key := pairs[l].Key(sketch, half)
		lo[l], hi[l] = offs[key], offs[key+1]
	}
	collisions := 0
	for l := range tables {
		bucket := tables[l].Items[lo[l]:hi[l]]
		collisions += len(bucket)
		for _, id := range bucket {
			words[id>>6] |= 1 << (id & 63)
		}
	}
	return collisions
}

// layoutSketches draws n sketches of p's M half-hashes: uniform, or with
// the cube of a uniform variate so a few values take most of the mass and
// most buckets stay empty.
func layoutSketches(p lshhash.Params, n int, skewed bool, seed uint64) *lshhash.Sketches {
	src := rng.New(seed)
	halfB := float64(p.HalfBuckets())
	sk := p.NewSketches(n)
	row := make([]uint32, p.M)
	for i := range n {
		for j := range row {
			if u := src.Float64(); skewed {
				row[j] = uint32(u * u * u * halfB)
			} else {
				row[j] = uint32(u * halfB)
			}
		}
		sk.Put(i, row)
	}
	return sk
}

// sameBuckets checks Bucket(key) against the dense reference for every one
// of the 2^K keys of every table.
func sameBuckets(t *testing.T, what string, st *Static, ref []denseTable) {
	t.Helper()
	buckets := st.fam.Params().Buckets()
	for l := range ref {
		for key := 0; key < buckets; key++ {
			got, want := st.tables[l].Bucket(nil, uint32(key)), ref[l].Bucket(uint32(key))
			if !slices.Equal(got, want) {
				t.Fatalf("%s: table %d bucket %d = %v, dense reference %v", what, l, key, got, want)
			}
		}
	}
}

// groupByKey builds every table over sk in one GroupByKey pass each, the
// one-level construction.
func groupByKey(fam *lshhash.Family, sk *lshhash.Sketches) *Static {
	p := fam.Params()
	st := &Static{fam: fam, n: sk.N(), tables: make([]Table, p.L()), signs: sk.Data}
	var tb TableBuilder
	keys, hist := make([]uint32, sk.N()), make([]uint32, p.Buckets())
	for l := range st.tables {
		a, b := lshhash.PairForTable(l, p.M)
		for i := range keys {
			keys[i] = sk.TableKey(i, a, b)
		}
		st.tables[l] = tb.GroupByKey(keys, p.K, hist)
	}
	return st
}

// TestLayoutMatchesDenseReference: for key multisets on both sides of full
// occupancy, GroupByKey, the shared build and Compact leave every bucket
// exactly as the dense layout had it, under a directory that validates.
func TestLayoutMatchesDenseReference(t *testing.T) {
	p := lshhash.Params{Dim: 64, K: 8, M: 4, Seed: 5}
	fam, err := lshhash.NewFamily(p)
	if err != nil {
		t.Fatal(err)
	}
	buckets := p.Buckets()
	arms := []struct {
		name  string
		build func(sk *lshhash.Sketches) *Static
	}{
		{"one-level", func(sk *lshhash.Sketches) *Static { return groupByKey(fam, sk) }},
		{"shared", func(sk *lshhash.Sketches) *Static { return BuildFromSketches(fam, sk, 3) }},
	}
	for _, n := range []int{0, 1, buckets - 1, buckets, 4 * buckets} {
		for _, skewed := range []bool{false, true} {
			sk := layoutSketches(p, n, skewed, uint64(n)+1)
			for _, arm := range arms {
				what := fmt.Sprintf("%s n=%d skewed=%v", arm.name, n, skewed)
				check := func(step string, st *Static, ref []denseTable) {
					t.Helper()
					if err := ValidateTables(p, n, st.tables); err != nil {
						t.Fatalf("%s, %s: %v", what, step, err)
					}
					sameBuckets(t, what+", "+step, st, ref)
				}

				st := arm.build(sk)
				ref := make([]denseTable, p.L())
				keys := make([]uint32, n)
				for l := range ref {
					a, b := lshhash.PairForTable(l, p.M)
					for i := range keys {
						keys[i] = sk.TableKey(i, a, b)
					}
					ref[l] = denseFromKeys(keys, buckets)
				}
				check("built", st, ref)
				if bound, got := TableMemoryBound(n, p.K, p.L()), tablesBytes(t, st); got > bound {
					t.Fatalf("%s: MemoryBytes less the column %d over TableMemoryBound %d", what, got, bound)
				}

				tomb := rng.New(uint64(n) + 99)
				dead := make([]bool, n)
				for i := range dead {
					dead[i] = tomb.Intn(3) == 0
				}
				drop := func(id uint32) bool { return dead[id] }
				st.Compact(drop, 2)
				for l := range ref {
					ref[l].compact(drop)
				}
				check("compacted", st, ref)
			}
		}
	}
}

// TestStaticFromTablesRejectsBadDirectory: each way a table can disagree
// with itself or with the index's geometry, edited into the table or into
// its encoding, is an error from DecodeTable or from StaticFromTables over
// what it decodes — the path a snapshot's tables take — never a panic and
// never an index: over 1 100 rows, whose directory indexes all 8 key bits,
// and over 80, whose directory indexes 5 and whose items carry 3. Arbitrary
// low key bits on an item are not an error: they only decide which key of
// its directory bucket it answers.
func TestStaticFromTablesRejectsBadDirectory(t *testing.T) {
	p := lshhash.Params{Dim: 64, K: 8, M: 4, Seed: 5}
	fam, err := lshhash.NewFamily(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		n int
		r uint // the key bits DirectoryBits leaves the items
	}{{1100, 0}, {80, 3}} {
		n := c.n
		sk := layoutSketches(p, n, true, 3)
		r := uint(p.K - DirectoryBits(n, p.K))
		if r != c.r {
			t.Fatalf("fixture: the items of %d rows carry %d key bits, want %d", n, r, c.r)
		}
		good := func() []Table {
			st := BuildFromSketches(fam, sk, 1)
			return st.tables
		}
		// load is what a snapshot reader does with the encoding of table 0
		// of tables, the one the others are held to: decode it, then
		// reassemble the index.
		load := func(tables []Table, enc []byte) error {
			var err error
			if tables[0], err = DecodeTable(enc); err != nil {
				return err
			}
			_, err = StaticFromTables(fam, n, tables, 1)
			return err
		}
		tables := good()
		if err := load(tables, tables[0].AppendEncoded(nil)); err != nil {
			t.Fatalf("n=%d: valid tables rejected: %v", n, err)
		}
		// Validation reads the arrays where they lie.
		if allocs := testing.AllocsPerRun(10, func() { _ = ValidateTables(p, n, tables) }); allocs != 0 {
			t.Fatalf("n=%d: ValidateTables allocates %v times over valid tables", n, allocs)
		}
		// starts edits the table's directory as one start a bucket, which
		// TableFromWords packs as it finds them.
		starts := func(edit func(starts []uint32) []uint32) func(tb *Table) {
			return func(tb *Table) {
				*tb = TableFromWords(edit(tb.appendStarts(nil)), tb.AppendItems(nil), tb.r)
			}
		}
		// items does the same to the items.
		items := func(edit func(items []uint32) []uint32) func(tb *Table) {
			return func(tb *Table) {
				*tb = TableFromWords(tb.appendStarts(nil), edit(tb.AppendItems(nil)), tb.r)
			}
		}
		// dirValue edits the value of width bits at bit of the directory's
		// packed bytes, width(tb) being the table's offset width or 32.
		dirValue := func(bit func(tb *Table) uint, width func(tb *Table) uint, edit func(uint32) uint32) func(tb *Table) {
			return func(tb *Table) {
				tb.dir.buf = slices.Clone(tb.dir.buf)
				at, w := bit(tb), width(tb)
				setBits(tb.dir.buf, at, w, edit(getBits(tb.dir.buf, at, w)))
			}
		}
		offsetWidth := func(tb *Table) uint { return tb.dir.width }
		baseWidth := func(*Table) uint { return 32 }
		// at returns table 0 built over the same rows with its items carrying
		// rAt key bits: a table valid in itself.
		at := func(rAt uint) func(tb *Table) {
			return func(tb *Table) {
				a, b := lshhash.PairForTable(0, p.M)
				keys := make([]uint32, n)
				for i := range keys {
					keys[i] = sk.TableKey(i, a, b)
				}
				*tb = groupAt(keys, p.K, rAt)
			}
		}
		type row struct {
			name    string
			corrupt func(tb *Table)                    // the table, before it is encoded
			encoded func(tb *Table, enc []byte) []byte // or its encoding
		}
		rows := []row{
			{name: "one block more", corrupt: starts(func(s []uint32) []uint32 {
				end := s[len(s)-1]
				for range 64 {
					s = append(s, end)
				}
				return s
			})},
			{name: "no blocks", corrupt: starts(func(s []uint32) []uint32 { return s[len(s)-1:] })},
			{name: "blocks past the bytes", encoded: func(_ *Table, enc []byte) []byte {
				binary.LittleEndian.PutUint32(enc[4:], 1<<29)
				return enc
			}},
			{name: "offsets decrease", corrupt: starts(func(s []uint32) []uint32 { s[2] = s[1] - 1; return s })},
			{name: "first offset not zero", corrupt: dirValue(func(*Table) uint { return 32 }, offsetWidth, func(uint32) uint32 { return 1 })},
			{name: "first base not zero", corrupt: dirValue(func(*Table) uint { return 0 }, baseWidth, func(uint32) uint32 { return 1 })},
			{name: "last block short of items", corrupt: starts(func(s []uint32) []uint32 { s[len(s)-1]--; return s })},
			{name: "last block past items", corrupt: items(func(items []uint32) []uint32 { return items[:len(items)-1] })},
			{name: "item id out of range", corrupt: items(func(items []uint32) []uint32 { items[7] = uint32(n) << r; return items })},
			// One past the ids ⌈log2 n⌉ bits hold: packed at the width n needs,
			// it would wrap to 0, which is in range.
			{name: "item id 2^⌈log2 n⌉", corrupt: items(func(items []uint32) []uint32 {
				items[7] = 1 << bits.Len(uint(n-1)) << r
				return items
			})},
			{name: "no item array", corrupt: func(tb *Table) { tb.items = packed{} }},
			{name: "item array one byte short", encoded: func(_ *Table, enc []byte) []byte { return enc[:len(enc)-1] }},
			{name: "item array one byte long", encoded: func(_ *Table, enc []byte) []byte { return append(enc, 0) }},
			{name: "directory one byte short", corrupt: func(tb *Table) { tb.dir.buf = tb.dir.buf[:len(tb.dir.buf)-1] }},
			{name: "directory one byte long", corrupt: func(tb *Table) { tb.dir.buf = append(tb.dir.buf, 0) }},
			{name: "offset width past its bytes", corrupt: func(tb *Table) { tb.dir.width++ }},
			// An all-zero directory as long as 33-bit offsets take: only the
			// width is wrong.
			{name: "offset width 33", corrupt: func(tb *Table) {
				tb.dir = packed{buf: make([]byte, dirBytes(uint(tb.nBlocks), 33)), width: 33}
			}},
			// The items' width, the word just before their bytes, read as 33
			// and the array lengthened to what 33 bits an item take.
			{name: "item width 33", encoded: func(tb *Table, enc []byte) []byte {
				binary.LittleEndian.PutUint32(enc[len(enc)-len(tb.items.buf)-4:], 33)
				return append(enc, make([]byte, packedBytes(uint(tb.n), 33)-len(tb.items.buf))...)
			}},
			// A table valid in itself whose directory indexes one key bit
			// fewer than the other tables'.
			{name: "tables with different b, one fewer", corrupt: at(r + 1)},
			// A table valid in itself at b = K/2 − 1.
			{name: "b below K/2", corrupt: at(uint(p.K/2 + 1))},
			// r read as 2^32 − 1: b = K − r is K + 1 in 32 bits, and the
			// directory's 2^b buckets no block count can hold.
			{name: "b above K", encoded: func(_ *Table, enc []byte) []byte {
				binary.LittleEndian.PutUint32(enc, 1<<32-1)
				return enc
			}},
		}
		if r > 0 {
			// Or one more: no table indexes more than K.
			rows = append(rows, row{name: "tables with different b, one more", corrupt: at(r - 1)})
		}
		if blocks := (1<<(uint(p.K)-r) + 63) / 64; blocks > 1 {
			// Block 1 starting one past where block 0 closes.
			rows = append(rows, row{name: "a base not where the block before closes", corrupt: dirValue(
				func(tb *Table) uint { return blockBits(tb.dir.width) }, baseWidth, func(v uint32) uint32 { return v + 1 })})
		}
		if b := uint(p.K) - r; b < 6 {
			// The last item moved into bucket 2^b, past the directory's
			// buckets but inside its one block: only where it lies is wrong.
			rows = append(rows, row{name: "a bucket past 2^b holds items", corrupt: starts(func(s []uint32) []uint32 {
				last := uint32(n) - 1
				for j := 1 << b; j > 0 && s[j] > last; j-- {
					s[j] = last
				}
				return s
			})})
		}
		for _, bad := range rows {
			tables := good()
			tb := &tables[0]
			if bad.corrupt != nil {
				bad.corrupt(tb)
			}
			enc := tb.AppendEncoded(nil)
			if bad.encoded != nil {
				enc = bad.encoded(tb, enc)
			}
			if err := load(tables, enc); err == nil {
				t.Errorf("n=%d: %s: accepted", n, bad.name)
			}
		}
		if _, err := StaticFromTables(fam, n, good()[:p.L()-1], 1); err == nil {
			t.Errorf("n=%d: missing table: accepted", n)
		}
		// Every item of table 0 given other low key bits: a valid table whose
		// items answer other keys.
		tables = good()
		low := uint32(1)<<r - 1
		items(func(items []uint32) []uint32 {
			for i := range items {
				items[i] ^= uint32(i) & low
			}
			return items
		})(&tables[0])
		if err := load(tables, tables[0].AppendEncoded(nil)); err != nil {
			t.Errorf("n=%d: items with other low key bits rejected: %v", n, err)
		}
	}
}

// groupAt is GroupByKey at a given r: the table of items 0..len(keys)-1
// under k-bit keys whose directory indexes k − r bits.
func groupAt(keys []uint32, k int, r uint) Table {
	low := uint32(1)<<r - 1
	hist := make([]uint32, 1<<(uint(k)-r))
	for _, key := range keys {
		hist[key>>r]++
	}
	var tb TableBuilder
	tb.Reset(len(hist), r)
	tb.Add(hist)
	items := make([]uint32, len(keys))
	for i, key := range keys {
		items[hist[key>>r]] = uint32(i)<<r | key&low
		hist[key>>r]++
	}
	return tb.Finish(items)
}

// sliceBytes sums cap × element size over every slice reachable from v.
func sliceBytes(v reflect.Value) int64 {
	var b int64
	switch v.Kind() {
	case reflect.Slice:
		b = int64(v.Cap()) * int64(v.Type().Elem().Size())
		for i := 0; i < v.Len(); i++ {
			b += sliceBytes(v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			b += sliceBytes(v.Field(i))
		}
	case reflect.Pointer:
		if !v.IsNil() {
			b = sliceBytes(v.Elem())
		}
	}
	return b
}

// TestMemoryBytesCountsEverySlice: MemoryBytes is the sign-bit column and
// the capacity of every slice a table holds, found by reflection so that a
// field added to Table cannot go uncounted — the packed items' array among
// them — before and after the in-place rewrites.
func TestMemoryBytesCountsEverySlice(t *testing.T) {
	fam, mat := testSetup(t, 200)
	st, err := Build(fam, mat, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	reachable := func() int64 {
		b := int64(cap(st.signs)) * 8 // the sign-bit column, beside the tables
		for l := range st.tables {
			b += sliceBytes(reflect.ValueOf(&st.tables[l]))
		}
		return b
	}
	if got, want := st.MemoryBytes(), reachable(); got != want {
		t.Fatalf("MemoryBytes = %d, slices reachable from the tables hold %d", got, want)
	}
	if floor := int64(fam.Params().L()) * int64(packedBytes(200, 8)); st.MemoryBytes() < floor {
		t.Fatalf("MemoryBytes = %d, below the items alone (%d)", st.MemoryBytes(), floor)
	}
	st.Compact(func(id uint32) bool { return id%2 == 0 }, 2)
	if got, want := st.MemoryBytes(), reachable(); got != want {
		t.Fatalf("after Compact: MemoryBytes = %d, slices hold %d", got, want)
	}
}

// tablesBytes is st.MemoryBytes less the sign-bit column, the tables'
// own footprint, which TableMemoryBound bounds: the column is exactly n
// packed sketches, which it checks, so the subtraction is exact.
func tablesBytes(t *testing.T, st *Static) int64 {
	t.Helper()
	col := int64(st.n*st.fam.Params().SketchWords()) * 8
	if got := int64(cap(st.signs)) * 8; got != col {
		t.Fatalf("the sign-bit column holds %d bytes, %d rows take %d", got, st.n, col)
	}
	return st.MemoryBytes() - col
}

// TestTableMemoryBoundIsTight: the footprint perfmodel.Select budgets with
// is never under what a build of that size over random keys holds, and
// within 15 % of it, below, at and past full occupancy — at K = 8, and at
// K = 16 on a fleet node's share, static_query's base set and 2^18 rows,
// whose directories index 11, 13 and 16 key bits (two to four items a
// bucket), items take 18 bits and entries 13, 15 and 19.
func TestTableMemoryBoundIsTight(t *testing.T) {
	for _, c := range []struct {
		k  int
		ns []int
	}{
		// 10 documents leave about half of the 16 buckets of the smallest
		// directory empty.
		{8, []int{10, 120, 1000, 1024, 32000}},
		{16, []int{8000, 32000, 262144}},
	} {
		p := lshhash.Params{Dim: 64, K: c.k, M: 6, Seed: 9}
		fam, err := lshhash.NewFamily(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range c.ns {
			sk := layoutSketches(p, n, false, uint64(n))
			got := tablesBytes(t, BuildFromSketches(fam, sk, 2))
			bound := TableMemoryBound(n, p.K, p.L())
			if bound < got || float64(bound) > 1.15*float64(got) {
				t.Errorf("K=%d n=%d: TableMemoryBound %d, MemoryBytes less the column %d (ratio %.3f)", c.k, n, bound, got, float64(bound)/float64(got))
			}
		}
	}
}
