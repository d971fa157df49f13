// Package core implements the paper's primary contribution: the static PLSH
// structure — cache-conscious parallel construction of the L hash tables
// (§5.1) and the optimized batched query engine (§5.2).
//
// A static PLSH instance is an immutable index over N documents. Each of
// the L = m(m−1)/2 tables is a contiguous array of the N document indexes,
// partitioned by the top b = clamp(⌈log2 N⌉ − 2, k/2, k) bits of the
// table's k-bit key, each index carrying the key's other r = k − b bits
// below it, plus a directory of blocks of 64 buckets, each a 32-bit base
// and 65 offsets from it packed like the items in the bits the widest
// block's span needs — no pointers, no per-bucket allocations, and nothing
// sized by the keys N documents cannot tell apart or by the values it
// could hold (Fig. 3a of the paper keeps a dense 2^k+1 offsets array and
// 32-bit ids; DESIGN.md "Static tables" has why this one does not).
// The package keeps one build (vectorized hashing, then the shared
// two-level partition), one Q2 kernel (ProbeMark, then the extraction scan)
// and one Q3 kernel (Verify over the scattered query); the Fig. 4 and Fig. 5
// ablations rebuild their less optimized arms from its exported pieces in
// internal/expr.
package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"unsafe"

	"plsh/internal/codec"
	"plsh/internal/lshhash"
	"plsh/internal/sched"
	"plsh/internal/sparse"
)

// Table is one LSH hash table. Its directory indexes the top b bits of the
// k-bit key, and its items are the N document indexes grouped by directory
// bucket — the 2^r keys that share those b bits, r = k − b — in key order,
// each stored as id<<r | key&(2^r − 1): the index with the key bits the
// directory does not hold below it. Bucket key is the items of directory
// bucket key>>r whose low r bits equal key's.
//
// The directory is one packed bit string of blocks of 64 directory buckets
// each (a 2^b below 64 takes one block, its buckets past 2^b empty at the
// end). A block is a 32-bit base, where its first bucket starts in the
// items, then 65 offsets from that base, each w bits: offset j is where
// bucket j of the block starts, and offset 64, the block's span, where its
// last bucket ends — the next block's base, or the item count after the
// last block. w is the bit length of the table's widest span. So a bucket's
// bounds are base + offset j and base + offset j+1, three loads from the
// one block with no branch and nothing to look up first (Table.bounds); an
// empty bucket is two equal offsets.
//
// b follows N as the widths do (DirectoryBits): clamp(⌈log2 N⌉ − 2, k/2, k),
// so a directory bucket holds two to four items whatever k is, a block
// spans 128 to 256 of them and its offsets take 8 or 9 bits, the directory
// about a quarter of what one bucket a document cost (DESIGN.md "Static
// tables"), each item carries two key bits more, and from 2^(k+1) documents
// on r = 0 and an item is its id alone.
//
// The items are a packed array as wide as its largest value needs: ⌈log2 N⌉
// + r bits in a table over N documents — k + 2 from 2^(k/2+2) documents up
// to 2^(k+2), 24 at the paper's 10.5 M. TableFromWords packs the directory
// (newDirectory) and the items (pack), DecodeTable copies both as
// AppendEncoded wrote them; the probe kernels (through bounds, span and
// load), Bucket, AppendItems and appendStarts are the readers.
//
// A Table is written once. Its fields are unexported, only the functions
// that return a Table (TableFromWords, DecodeTable, TableBuilder's Finish
// and GroupByKey, Merge's per-table copy) set them, and no method writes
// them, so the tables of a published index are scanned lock-free.
type Table struct {
	dir     packed // the blocks; its width is w, the offsets'
	nBlocks uint32
	r       uint // the key bits each item carries below its id

	items packed
	n     uint32 // the item count
}

// DirectoryBits is b, the key bits a table over n documents under k-bit
// keys indexes: ⌈log2 n⌉ − 2, so that a directory bucket holds two to four
// items, held to at least k/2 — the first-level key, which every build
// partitions by whole — and at most k.
func DirectoryBits(n, k int) int {
	return min(max(bits.Len(uint(max(n, 1)-1))-2, k/2), k)
}

// packed is an array of values of width bits each, value i at bits
// [i·width, (i+1)·width) of buf read as one little-endian bit string,
// followed by packedPad bytes: an 8-byte load at the byte a value starts in
// — the last value's included — never leaves buf. A width is at most 32 and
// a value starts at most 7 bits into its byte, so that one load holds the
// whole value. The header is four words, which the compiler keeps in
// registers; a fifth — a stored mask — made it copy the header through the
// stack at every read.
type packed struct {
	buf   []byte
	width uint
}

// packedPad is the tail padding of a packed array.
const packedPad = 8

// pack returns vals packed in as many bits as the largest of them needs. The
// width follows the values, not their count, and nothing of them is lost
// whatever they hold: a decoder may pack what it read and let ValidateTables
// judge it, since a value out of range stays out of range rather than
// wrapping into it.
func pack(vals []uint32) packed {
	// The union of the values, its highest bit the largest value's, in four
	// running ORs: one waits on the OR before it, four do not.
	var u0, u1, u2, u3 uint32
	i := 0
	for ; i+4 <= len(vals); i += 4 {
		v := vals[i : i+4 : i+4]
		u0, u1, u2, u3 = u0|v[0], u1|v[1], u2|v[2], u3|v[3]
	}
	for _, v := range vals[i:] {
		u0 |= v
	}
	width := uint(bits.Len32(u0 | u1 | u2 | u3))
	buf := make([]byte, packedBytes(uint(len(vals)), width))
	// acc holds the nb bits that do not yet fill a 32-bit word, which starts
	// at byte at. Nothing stored is read back: an OR into the array would
	// load bytes the previous store has just half-written, which the store
	// buffer cannot forward, and that made packing twice as slow. A word is
	// stored only once 32 bits of values fill it, so it ends at or before
	// byte len(vals)·width/8, inside buf: the stores go through base and a
	// [4]byte, with no check, as load reads — a store to a slice of buf
	// spent a fifth of the packing on its checks.
	base := unsafe.Pointer(unsafe.SliceData(buf))
	var acc uint64
	var nb, at uint
	for _, v := range vals {
		acc |= uint64(v) << (nb & 31) // nb < 32 and width ≤ 32: acc holds the value
		nb += width
		if nb >= 32 {
			binary.LittleEndian.PutUint32((*[4]byte)(unsafe.Add(base, at))[:], uint32(acc))
			at, acc, nb = at+4, acc>>32, nb-32
		}
	}
	binary.LittleEndian.PutUint64(buf[at:], acc) // the last word, begun
	return packed{buf: buf, width: width}
}

// span checks, once, that reading values below end stays inside the array,
// and returns the array's address and the mask that load takes. A value's
// load ends at most 8 bytes past the byte it starts in, and end·width>>3 + 7
// is past every such byte, so that one bounds check — which the padding
// makes pass for any end up to the value count — stands for every load of a
// bucket; it panics, like any bounds check, for an end past it.
func (p packed) span(end uint) (base unsafe.Pointer, mask uint64) {
	_ = p.buf[(end*p.width)>>3+7]
	return unsafe.Pointer(unsafe.SliceData(p.buf)), 1<<(p.width&63) - 1
}

// load returns the value that starts at bit of the array at base, given the
// array's mask: one unaligned 8-byte load, a shift and a mask — the same
// three steps, and no branch, at every width. The caller has checked the
// load against the array with span. (Read through a [8]byte, the load
// compiles to one instruction on a little-endian machine, with none of the
// two checks and the pointer masking of a slice expression, which cost the
// probe a fifth of its time at 32 000 rows.)
func load(base unsafe.Pointer, bit uint, mask uint64) uint32 {
	return uint32(binary.LittleEndian.Uint64((*[8]byte)(unsafe.Add(base, bit>>3))[:]) >> (bit & 7) & mask)
}

// at returns value i.
func (p packed) at(i uint32) uint32 {
	base, mask := p.span(uint(i) + 1)
	return load(base, uint(i)*p.width, mask)
}

// appendTo appends the first n values, unpacked, to dst.
func (p packed) appendTo(dst []uint32, n uint32) []uint32 {
	if n == 0 {
		return dst // and a zero Table, which has no array to span, has none
	}
	base, mask := p.span(uint(n))
	dst = slices.Grow(dst, int(n))
	out := dst[len(dst) : len(dst)+int(n)] // stored by index: an append checks the capacity at every value
	for i := range out {
		out[i] = load(base, uint(i)*p.width, mask)
	}
	return dst[:len(dst)+int(n)]
}

// packedBytes is the length of the packed array of n values of width bits.
func packedBytes(n, width uint) int {
	return int((n*width+7)/8 + packedPad)
}

// blockBits is the bits one directory block takes at offset width w: the
// 32-bit base and 65 offsets.
func blockBits(w uint) uint { return 32 + 65*w }

// dirBytes is the length of a directory of blocks blocks at offset width w,
// padding included.
func dirBytes(blocks, w uint) int { return int((blocks*blockBits(w)+7)/8 + packedPad) }

// bounds returns where bucket key starts and ends in the items: the base of
// its directory bucket's block plus the bucket's offset and the next one.
// The three loads sit in one block, behind one bounds check — the last
// offset's, which lies past the other two — and nothing in it branches, on
// a directory word, which the probe must not wait for (see stageBuckets), or
// on anything else.
func (t *Table) bounds(key uint32) (lo, hi uint32) {
	d := uint(key >> t.r)
	w := t.dir.width
	at := d >> 6 * blockBits(w) // the block, at its base
	off := at + 32 + d&63*w
	_ = t.dir.buf[(off+w)>>3+7]
	p, mask := unsafe.Pointer(unsafe.SliceData(t.dir.buf)), uint64(1)<<(w&63)-1
	base := load(p, at, 1<<32-1)
	return base + load(p, off, mask), base + load(p, off+w, mask)
}

// keyMatch returns what the probe kernels test the items of directory
// bucket key>>r against. An item times mul is the item shifted left by
// 32 − r: the high word is its id, the low word its r key bits at the top,
// and want is that low word for key — so an item is in bucket key when the
// low words are equal. (A multiply, not a shift by r: a shift by a count in
// a register takes CL on amd64, which the load's shift holds too, and
// measured a quarter slower on a cold probe.) At r = 0 the low words are
// both 0 and every item matches.
func (t *Table) keyMatch(key uint32) (mul uint64, want uint32) {
	mul = 1 << (32 - t.r)
	return mul, uint32(uint64(key) * mul)
}

// Bucket appends the document indexes in bucket key to dst.
func (t *Table) Bucket(dst []uint32, key uint32) []uint32 {
	lo, hi := t.bounds(key)
	mul, want := t.keyMatch(key)
	for i := lo; i < hi; i++ {
		if item := uint64(t.items.at(i)) * mul; uint32(item) == want {
			dst = append(dst, uint32(item>>32))
		}
	}
	return dst
}

// AppendItems appends every item, in key order, to dst: the items with the
// packing undone, as Merge edits them — each an id<<r with the key's low r
// bits below it.
func (t *Table) AppendItems(dst []uint32) []uint32 { return t.items.appendTo(dst, t.n) }

// appendStarts appends where every directory bucket starts in the items, 64
// a block, then where the last one ends, to dst: the directory unpacked to
// one 32-bit start a bucket, as Merge edits it. A table of no blocks appends
// the end alone, 0.
func (t *Table) appendStarts(dst []uint32) []uint32 {
	var end uint32
	if t.nBlocks > 0 {
		w := t.dir.width
		last := uint(t.nBlocks) * blockBits(w)
		_ = t.dir.buf[last>>3+7]
		p, mask := unsafe.Pointer(unsafe.SliceData(t.dir.buf)), uint64(1)<<(w&63)-1
		for at := uint(0); at < last; at += blockBits(w) {
			base := load(p, at, 1<<32-1)
			for j := range uint(64) {
				dst = append(dst, base+load(p, at+32+j*w, mask))
			}
			end = base + load(p, at+32+64*w, mask)
		}
	}
	return append(dst, end)
}

// TableFromWords returns the table whose directory bucket d starts at
// starts[d] in items — each id<<r | the key's low r bits — the last bucket
// ending at starts[len(starts)−1], the directory packed in blocks
// (newDirectory) and the items in the bits the largest of them needs (see
// pack); neither slice is kept. A last block that starts leave short holds
// empty buckets at the end. Every builder and in-place rewrite ends here;
// what the words say is ValidateTables' to judge.
func TableFromWords(starts, items []uint32, r uint) Table {
	buckets := max(len(starts), 1) - 1
	blocks := (buckets + 63) / 64
	var last [65]uint32 // the last block, when starts leave it short
	if blocks > 0 && buckets%64 != 0 {
		n := copy(last[:], starts[64*(blocks-1):])
		for j := n; j < 65; j++ {
			last[j] = starts[buckets]
		}
	}
	dir := newDirectory(uint(blocks), func(i int) *[65]uint32 {
		if 64*i+65 > len(starts) {
			return &last
		}
		return (*[65]uint32)(starts[64*i:])
	})
	return Table{dir: dir, nBlocks: uint32(blocks), r: r, items: pack(items), n: uint32(len(items))}
}

// newDirectory returns the directory of blocks blocks, block i's 65 starts
// — where each of its 64 buckets starts, then where the last one ends — as
// block returns them: each block stored as its first start and the 65
// starts less it, in the bits the union of those differences needs. The
// width follows the values, not their count, and a difference that wraps
// below 0 stays as large as it wrapped to, so starts that decrease make a
// table ValidateTables refuses, not a wrong one (as pack does). block is
// called twice a block, for the width and then for the bits, in order of i
// each time. TableFromWords is the caller.
func newDirectory(blocks uint, block func(i int) *[65]uint32) packed {
	var union uint32
	for i := range int(blocks) {
		s := block(i)
		for _, v := range s {
			union |= v - s[0]
		}
	}
	w := uint(bits.Len32(union))
	buf := make([]byte, dirBytes(blocks, w))
	// As pack writes: acc holds the nb < 32 bits that do not yet fill the
	// 32-bit word at byte at, stored once full and never read back. (Stored
	// at every value, the cursor moving on by arithmetic, it read slower.)
	base := unsafe.Pointer(unsafe.SliceData(buf))
	var acc uint64
	var nb, at uint
	for i := range int(blocks) {
		s := block(i)
		first := s[0]
		// The base fills the word begun and leaves nb bits over.
		acc |= uint64(first) << (nb & 31)
		binary.LittleEndian.PutUint32((*[4]byte)(unsafe.Add(base, at))[:], uint32(acc))
		at, acc = at+4, acc>>32
		for _, v := range s {
			acc |= uint64(v-first) << (nb & 31)
			nb += w
			if nb >= 32 {
				binary.LittleEndian.PutUint32((*[4]byte)(unsafe.Add(base, at))[:], uint32(acc))
				at, acc, nb = at+4, acc>>32, nb-32
			}
		}
	}
	binary.LittleEndian.PutUint64(buf[at:], acc) // the last word, begun
	return packed{buf: buf, width: w}
}

// AppendEncoded appends the table's encoding to dst: the key bits its items
// carry (r), then the directory, as its block count, its offset width and
// its packed bytes verbatim, padding included, then the items, as their
// count, their width and their packed bytes verbatim — every integer
// little-endian, the byte order pack lays values out in. A snapshot stores a
// table as this, so the file holds a table at the bits it takes in memory.
func (t *Table) AppendEncoded(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(t.r))
	dst = t.dir.appendEncoded(dst, t.nBlocks)
	return t.items.appendEncoded(dst, t.n)
}

// appendEncoded appends n, the width and the array to dst.
func (p packed) appendEncoded(dst []byte, n uint32) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, n)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(p.width))
	return append(dst, p.buf...)
}

// errEncoding is DecodeTable's error for bytes that are not shaped as a
// table's encoding.
var errEncoding = errors.New("core: table encoding is malformed")

// DecodeTable returns the table AppendEncoded encoded as b. Each array is
// copied into an allocation of exactly its size, so b is not kept. It checks
// the shape: each array as long as its count and width say, no width past
// 32, nothing after the items. What the arrays and r hold is
// ValidateTables' to judge.
func DecodeTable(b []byte) (Table, error) {
	d := codec.NewDecoder(b, errEncoding)
	t := Table{r: uint(d.U32("r"))}
	t.nBlocks, t.dir = decodeArray(&d, dirBytes)
	t.n, t.items = decodeArray(&d, packedBytes)
	if err := d.Done(); err != nil {
		return Table{}, err
	}
	return t, nil
}

// decodeArray reads the count, the width and the array appendEncoded wrote,
// the array as long as size says count values of that width take.
func decodeArray(d *codec.Decoder, size func(count, width uint) int) (uint32, packed) {
	n, width := d.U32("count"), uint(d.U32("width"))
	if width > 32 {
		d.Fail("%d-bit values", width)
		return 0, packed{}
	}
	raw := d.Take(size(uint(n), width), "packed array")
	if d.Err() != nil {
		return 0, packed{}
	}
	buf := make([]byte, len(raw))
	copy(buf, raw)
	return n, packed{buf: buf, width: width}
}

// TableBuilder assembles Tables from per-bucket item counts presented in
// key order, a bucket being a directory bucket. Reset starts a table, Add
// takes the next run of buckets, Finish seals it. A builder owns a starts
// scratch buffer that it reuses from table to table, so building L tables on
// one builder allocates each table's own arrays and nothing else.
type TableBuilder struct {
	starts []uint32 // where every bucket so far starts; scratch
	key    uint32   // next bucket
	cum    uint32   // items in the buckets before key
	r      uint
}

// Reset starts a table of the given directory bucket count, whose items
// carry r key bits.
func (b *TableBuilder) Reset(buckets int, r uint) {
	// Whole blocks, and the end of the last bucket.
	need := (buckets+63)&^63 + 1
	if cap(b.starts) < need {
		b.starts = make([]uint32, need)
	}
	b.starts = b.starts[:need]
	b.key, b.cum, b.r = 0, 0, r
}

// Add appends the next len(counts) buckets, counts[i] items in the i-th of
// them, and overwrites each count with the position in the items at which
// that bucket starts — the scatter cursors of a counting sort — which is
// also the bucket's start in the directory.
func (b *TableBuilder) Add(counts []uint32) {
	starts, cum := b.starts[b.key:][:len(counts)], b.cum
	for i, c := range counts {
		counts[i] = cum
		starts[i] = cum
		cum += c
	}
	b.key += uint32(len(counts))
	b.cum = cum
}

// Finish returns the table over items, which the caller has filled at the
// positions Add handed out, each id<<r | the key's low r bits. The table
// keeps no reference to items.
func (b *TableBuilder) Finish(items []uint32) Table {
	return TableFromWords(b.seal(), items, b.r)
}

// seal closes the directory and returns every bucket's start, the buckets
// past the last one Add took — to the end of its block — empty at the item
// count, and then the item count; the starts are the builder's scratch.
func (b *TableBuilder) seal() []uint32 {
	for i := b.key; i < uint32(len(b.starts)); i++ {
		b.starts[i] = b.cum
	}
	return b.starts
}

// GroupByKey builds the table of items 0..len(keys)-1 under k-bit keys, item
// i under key keys[i], at the directory bits DirectoryBits gives for
// len(keys) items, in one stable counting sort over hist — scratch of at
// least 2^k entries.
func (b *TableBuilder) GroupByKey(keys []uint32, k int, hist []uint32) Table {
	r := uint(k - DirectoryBits(len(keys), k))
	low := uint32(1)<<r - 1
	hist = hist[:1<<(uint(k)-r)]
	clear(hist)
	for _, key := range keys {
		hist[key>>r]++
	}
	b.Reset(len(hist), r)
	b.Add(hist)
	items := make([]uint32, len(keys))
	for i, key := range keys {
		items[hist[key>>r]] = uint32(i)<<r | key&low
		hist[key>>r]++
	}
	return b.Finish(items)
}

// TableMemoryBound bounds the bytes of l tables under k-bit keys over n
// documents. Eq. 7.4 charges (L·N + 2^k·L)·4; here the directory indexes
// b = DirectoryBits(n, k) = clamp(⌈log2 n⌉ − 2, k/2, k) key bits, an item
// costs the ⌈log2 n⌉ + k − b bits the largest of them needs — max(k + 2,
// ⌈log2 n⌉) from 2^(k/2+2) documents on — and in place of the 2^k·L·4 is a
// directory of ⌈2^b/64⌉ blocks of 32 + 65·w bits, each packed array plus its
// 8 bytes of padding. w is the bit length of the widest block's span, which
// is charged at twice a block's mean share of the n items and never more
// than n, all there are: uniformly random keys give a block its mean share
// with a spread of about its square root, so the widest of a thousand
// blocks holding 250 items each holds about 310, under the 500 charged, and
// the bit length rounds up past that. So MemoryBytes of a fresh build never
// exceeds the bound unless its keys crowd one block with twice its share,
// and comes within a few percent of it over random ones.
func TableMemoryBound(n, k, l int) int64 {
	b := DirectoryBits(n, k)
	blocks := (1<<uint(b) + 63) / 64
	widest := min(n, 2*((n+blocks-1)/blocks))
	itemWidth := uint(bits.Len(uint(max(n, 1)-1)) + k - b) // ⌈log2 n⌉ + r
	perTable := int64(packedBytes(uint(n), itemWidth) + dirBytes(uint(blocks), uint(bits.Len(uint(widest)))))
	return int64(l) * perTable
}

// Static is an immutable PLSH index over n documents. Its fields are
// unexported and set only by the functions that return one — Build,
// BuildFromSketches, Merge and StaticFromTables — so the index a node's
// snapshot publishes is scanned lock-free by every query.
//
// Beside the tables it keeps every row's packed sketch (lshhash.Sketches),
// the sign-bit column Verify reads before a document. The column is
// derived, never stored: a build keeps the packed sketches it
// hashed, a merge appends its added rows' to the old column, and
// StaticFromTables reads it back out of the tables. A row the tables do not
// hold — one a merge dropped for its tombstone — has a zero entry; it is
// never a candidate.
type Static struct {
	fam    *lshhash.Family
	n      int
	tables []Table
	signs  []uint64 // n packed sketches of SketchWords words
}

// Family returns the hash family the index was built with.
func (s *Static) Family() *lshhash.Family { return s.fam }

// Len returns the number of indexed documents.
func (s *Static) Len() int { return s.n }

// NumTables returns L.
func (s *Static) NumTables() int { return len(s.tables) }

// Table returns table l.
func (s *Static) Table(l int) *Table { return &s.tables[l] }

// Tables exposes the full table slice for serialization. Callers must
// treat it as read-only.
func (s *Static) Tables() []Table { return s.tables }

// Signs returns the sign-bit column: row i's packed sketch is words
// [i·w, (i+1)·w) for w = SketchWords. Callers must treat it as read-only.
func (s *Static) Signs() []uint64 { return s.signs }

// StaticFromTables reassembles a Static index from previously serialized
// tables (see internal/persist), taking ownership of the slice, and derives
// its sign-bit column from them on workers workers (signsFromTables). The
// tables must pass ValidateTables for n documents under fam's geometry.
func StaticFromTables(fam *lshhash.Family, n int, tables []Table, workers int) (*Static, error) {
	if err := ValidateTables(fam.Params(), n, tables); err != nil {
		return nil, err
	}
	return &Static{fam: fam, n: n, tables: tables, signs: signsFromTables(fam.Params(), n, tables, workers)}, nil
}

// signsFromTables returns the packed sketches of the n rows tables hold. The
// tables of the disjoint pairs (0, 1), (2, 3), … hold every half-key between
// them — the last of an odd M in the table (M−2, M−1) — and an item's full
// key is its directory bucket shifted left by r, OR the r key bits it
// carries: the pair's two half-keys, side by side. A packed word holds whole
// pairs of lanes (WordLanes), so one task a word walks the tables of its
// pairs, placing each item's key in that word of its row. The task fills a
// column of its own — the word's lanes as a sketch of their own — which
// one pass then interleaves: two tasks writing the words of one row would
// share its cache line at every item. A row no table holds keeps a zero
// entry. Each table is walked once, in key order, its directory unpacked
// to one start a bucket and its items read where they lie.
func signsFromTables(p lshhash.Params, n int, tables []Table, workers int) []uint64 {
	words := p.SketchWords()
	parts := make([]*lshhash.Sketches, words)
	sched.NewPool(workers).Run(words, func(w, _ int) {
		var scratch []uint32 // a table's bucket starts
		lo, hi := p.WordLanes(w)
		part := lshhash.Params{K: p.K, M: hi - lo}.NewSketches(n)
		parts[w] = part
		for a := lo; a < hi; a += 2 {
			// u_a and u_(a+1) from the pair's table — or, for an odd M's
			// last half-key, u_(M−1) alone from (M−2, M−1), the key's low
			// half moved up to where OrKey reads u_a.
			pair, keep, up := a, ^uint32(0), uint(0)
			if a == p.M-1 {
				pair, keep, up = a-1, uint32(1)<<(p.K/2)-1, uint(p.K/2)
			}
			t := &tables[lshhash.TableForPair(pair, pair+1, p.M)]
			r, low := t.r, uint32(1)<<t.r-1
			ibase, imask := t.items.span(uint(t.n))
			starts := t.appendStarts(scratch[:0])
			scratch = starts
			for d, start := range starts[:len(starts)-1] {
				key := uint32(d) << r
				for i := start; i < starts[d+1]; i++ {
					item := load(ibase, uint(i)*t.items.width, imask)
					part.OrKey(int(item>>r), a-lo, (key|item&low)&keep<<up)
				}
			}
		}
	})
	signs := make([]uint64, n*words)
	for w, part := range parts {
		for id, v := range part.Data {
			signs[id*words+w] = v
		}
	}
	return signs
}

// TableError is ValidateTables' error for a table that does not describe
// the index: which table, and what is wrong with it.
type TableError struct {
	Table  int
	Reason string
}

func (e *TableError) Error() string { return fmt.Sprintf("core: table %d: %s", e.Table, e.Reason) }

// ValidateTables reports whether tables describe n documents under p's
// geometry: L = m(m−1)/2 tables, all indexing the same b key bits with
// K/2 ≤ b ≤ K, each with ⌈2^b/64⌉ directory blocks and each packed array as
// long as its count and width take, no width past 32; block by block, the
// first base 0 and each next one where the block before it closes, every
// block's offsets running up from 0, any buckets past 2^b empty, and the
// last block closing at the item count; and every item's id
// below n — the checks that keep a corrupt snapshot from becoming an index
// that reads out of bounds, each failing as a *TableError. An item's low
// key bits may hold anything: they only decide which key of its directory
// bucket it answers. The directory and the items are read where they lie,
// so validating allocates nothing but a failure's error.
func ValidateTables(p lshhash.Params, n int, tables []Table) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if len(tables) != p.L() {
		return errors.New("core: table count does not match family")
	}
	r := tables[0].r
	if r > uint(p.K/2) {
		return &TableError{0, "directory indexes fewer than K/2 key bits"}
	}
	buckets := uint(1) << (uint(p.K) - r)
	blocks := (buckets + 63) / 64
	for l := range tables {
		t := &tables[l]
		bad := func(reason string) error { return &TableError{l, reason} }
		switch {
		case t.r != r:
			return bad("tables index different key bits")
		case uint(t.nBlocks) != blocks:
			return bad("directory block count does not match its key bits")
		case t.dir.width > 32 || len(t.dir.buf) != dirBytes(blocks, t.dir.width):
			return bad("directory bytes do not hold its blocks at its width")
		case t.items.width > 32 || len(t.items.buf) != packedBytes(uint(t.n), t.items.width):
			return bad("item bytes do not hold its items at their width")
		}
		w := t.dir.width
		dir, mask := unsafe.Pointer(unsafe.SliceData(t.dir.buf)), uint64(1)<<(w&63)-1
		var next uint64 // where the next block must start
		for at := uint(0); at < blocks*blockBits(w); at += blockBits(w) {
			base := load(dir, at, 1<<32-1)
			if uint64(base) != next {
				return bad("a block does not start where the one before it closes")
			}
			off := load(dir, at+32, mask)
			if off != 0 {
				return bad("a block's first offset is not 0")
			}
			for j := uint(1); j <= 64; j++ {
				o := load(dir, at+32+j*w, mask)
				if o < off {
					return bad("offsets decrease")
				}
				if j > buckets && o != off {
					return bad("a bucket past 2^b holds items")
				}
				off = o
			}
			next = uint64(base) + uint64(off)
		}
		if next != uint64(t.n) {
			return bad("the last block does not close at the item count")
		}
		items, limit := t.items, uint64(n)<<r // an item's id is below n when the item is below n<<r
		base, imask := items.span(uint(t.n))
		for i := range uint(t.n) {
			if uint64(load(base, i*items.width, imask)) >= limit {
				return bad("item id out of range")
			}
		}
	}
	return nil
}

// MemoryBytes reports the bytes the index holds: every table's packed items
// (the L·N·4 of Eq. 7.4's memory constraint, at ⌈log2 N⌉ + r bits an item) and
// its directory blocks, and the sign-bit column, counted at capacity.
func (s *Static) MemoryBytes() int64 {
	b := int64(cap(s.signs)) * 8
	for i := range s.tables {
		t := &s.tables[i]
		b += int64(cap(t.dir.buf)) + int64(cap(t.items.buf))
	}
	return b
}

// errDimMismatch is returned when data dimensionality does not match the
// family's.
var errDimMismatch = errors.New("core: matrix dimensionality does not match hash family")

func checkDims(fam *lshhash.Family, mat *sparse.Matrix) error {
	if mat.Dim != fam.Params().Dim {
		return errDimMismatch
	}
	return nil
}
