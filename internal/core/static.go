// Package core implements the paper's primary contribution: the static PLSH
// structure — cache-conscious parallel construction of the L hash tables
// (§5.1) and the optimized batched query engine (§5.2).
//
// A static PLSH instance is an immutable index over N documents. Each of
// the L = m(m−1)/2 tables is a contiguous array of the N document indexes,
// partitioned by the top b = clamp(⌈log2 N⌉ − 2, k/2, k) bits of the
// table's k-bit key, each index carrying the key's other r = k − b bits
// below it, plus a directory over the occupied buckets only: a 2^b-bit
// occupancy bitmap, a rank directory over it and one offset per occupied
// bucket, packed like the items in the bits the largest offset needs — no
// pointers, no per-bucket allocations, and nothing sized by the buckets a
// table does not use, by the keys N documents cannot tell apart or by the
// values it could hold (Fig. 3a of the paper keeps a dense 2^k+1 offsets
// array and 32-bit ids; DESIGN.md "Static tables" has why this one does
// not).
// The package keeps one build (vectorized hashing, then the shared
// two-level partition), one Q2 kernel (ProbeMark, then the extraction scan)
// and one Q3 kernel (Verify over the scattered query); the Fig. 4 and Fig. 5
// ablations rebuild their less optimized arms from its exported pieces in
// internal/expr.
package core

import (
	"encoding/binary"
	"errors"
	"math"
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
// bucket key>>r whose low r bits equal key's. Only occupied directory
// buckets have an entry: bit d of occ is set when directory bucket d has
// one, rank[w] counts the set bits below word w, and the bucket with the
// j-th set bit holds the items from where entry j starts to where entry j+1
// does, one closing entry at the item count ending the last. A builder sets
// exactly the bits of the non-empty buckets; Merge may then leave a bucket
// empty whose bit stays set, so a set bit promises an entry, not an item.
// The rank words are derived, never stored: every constructor counts them
// from the bitmap (rankOf).
//
// b follows N as the widths do (DirectoryBits): clamp(⌈log2 N⌉ − 2, k/2, k),
// so a directory bucket holds two to four items whatever k is, the bitmap,
// its rank words and the entries take about a quarter of what one bucket a
// document cost (DESIGN.md "Four items a directory bucket"), each item
// carries two key bits more, and from 2^(k+1) documents on r = 0 and an
// item is its id alone.
//
// Items and entries are one encoding used twice: a packed array as wide as
// its largest value needs. An item takes ⌈log2 N⌉ + r bits in a table over N
// documents — k + 2 from 2^(k/2+2) documents up to 2^(k+2), 24 at the
// paper's 10.5 M — and an entry the bit length of the item count, the
// closing entry being the largest. TableFromWords packs both, DecodeTable
// copies them as AppendEncoded wrote them; the probe kernels (through span
// and load), Bucket, AppendItems and appendOffsets are the readers.
//
// A Table is written once. Its fields are unexported, only the functions
// that return a Table (TableFromWords, DecodeTable, TableBuilder's Finish
// and GroupByKey, Merge's per-table copy) set them, and no method writes
// them, so the tables of a published index are scanned lock-free.
type Table struct {
	occ  []uint64 // ⌈2^b/64⌉ words
	rank []uint32 // one per word of occ
	r    uint     // the key bits each item carries below its id

	items    packed
	entries  packed // one per set bit of occ, then the closing one
	n        uint32 // the item count
	nEntries uint32
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

// slot locates the directory bucket of key, key>>r: the index of its entry
// and 1, or (0, 0) when its bit is clear — so that entries slot and slot+set
// bound the bucket either way, an empty one by reading entry 0 twice. It is
// arithmetic on the two loaded words only; the probe relies on it having no
// branch (see stageBuckets).
func (t *Table) slot(key uint32) (slot, set uint32) {
	d := key >> t.r
	w, bit := d>>6, d&63
	word := t.occ[w]
	set = uint32(word>>bit) & 1
	below := uint32(bits.OnesCount64(word & (1<<bit - 1)))
	return (t.rank[w] + below) & -set, set
}

// bounds returns where entries slot and slot+set start: the bounds in the
// items of the bucket slot located. It is two loads behind one bounds check
// and has no branch — on a directory word, which the probe must not wait
// for (see stageBuckets), or on anything else.
func (t *Table) bounds(slot, set uint32) (lo, hi uint32) {
	next := slot + set
	w := t.entries.width
	base, mask := t.entries.span(uint(next) + 1)
	return load(base, uint(slot)*w, mask), load(base, uint(next)*w, mask)
}

// start returns where entry e starts in the items.
func (t *Table) start(e uint32) uint32 { return t.entries.at(e) }

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
	lo, hi := t.bounds(t.slot(key))
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

// appendOffsets appends the start of every entry, the closing one included,
// to dst: the entries with the packing undone, as Merge edits them.
func (t *Table) appendOffsets(dst []uint32) []uint32 { return t.entries.appendTo(dst, t.nEntries) }

// TableFromWords returns the table over the bitmap occ, which it keeps, with
// offsets — one per set bit of occ, then the item count — as its entries and
// items — each id<<r | the key's low r bits — as its items, each packed in
// the bits the largest of them needs (see pack; neither slice is kept).
// Every builder and in-place rewrite ends here; what the words say is
// ValidateTables' to judge.
func TableFromWords(occ []uint64, offsets, items []uint32, r uint) Table {
	return Table{
		occ: occ, rank: rankOf(occ), r: r,
		entries: pack(offsets), nEntries: uint32(len(offsets)),
		items: pack(items), n: uint32(len(items)),
	}
}

// rankOf returns the rank words of the bitmap occ: for each word, the set
// bits in the words before it.
func rankOf(occ []uint64) []uint32 {
	rank := make([]uint32, len(occ))
	var below uint32
	for w, word := range occ {
		rank[w] = below
		below += uint32(bits.OnesCount64(word))
	}
	return rank
}

// AppendEncoded appends the table's encoding to dst: the key bits its items
// carry (r), then the bitmap, as its word count and then its words,
// followed by the entries and the items, each as its value count, its width
// and its packed bytes verbatim, padding included — every integer
// little-endian, the byte order pack lays values out in. The rank words are
// left out; DecodeTable counts them again. A snapshot stores a table as
// this, so the file holds a table at the bits it takes in memory.
func (t *Table) AppendEncoded(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(t.r))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(t.occ)))
	dst = codec.AppendWords(dst, t.occ)
	dst = t.entries.appendEncoded(dst, t.nEntries)
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
// copied into an allocation of exactly its size, so b is not kept, and the
// rank words are counted from the bitmap. It checks the shape: every array
// as long as its count and width say, no width past 32, nothing after the
// items. What the arrays and r hold is ValidateTables' to judge.
func DecodeTable(b []byte) (Table, error) {
	d := codec.NewDecoder(b, errEncoding)
	r := uint(d.U32("r"))
	words := int(d.U32("bitmap words"))
	raw := d.Take(8*words, "bitmap")
	if d.Err() != nil {
		return Table{}, d.Err()
	}
	occ := make([]uint64, words)
	codec.DecodeWords(occ, raw)
	t := Table{occ: occ, rank: rankOf(occ), r: r}
	t.entries, t.nEntries = decodePacked(&d)
	t.items, t.n = decodePacked(&d)
	if err := d.Done(); err != nil {
		return Table{}, err
	}
	return t, nil
}

// decodePacked reads the packed array appendEncoded wrote, and returns it
// and its value count.
func decodePacked(d *codec.Decoder) (packed, uint32) {
	n, width := d.U32("value count"), uint(d.U32("width"))
	if width > 32 {
		d.Fail("%d-bit values", width)
		return packed{}, 0
	}
	raw := d.Take(packedBytes(uint(n), width), "packed array")
	if d.Err() != nil {
		return packed{}, 0
	}
	buf := make([]byte, len(raw))
	copy(buf, raw)
	return packed{buf: buf, width: width}, n
}

// TableBuilder assembles Tables from per-bucket item counts presented in
// key order, a bucket being a directory bucket. Reset starts a table, Add
// takes the next run of buckets, Finish seals it. A builder owns an offsets
// scratch buffer that it reuses from table to table, so building L tables on
// one builder allocates each table's own arrays and nothing else.
type TableBuilder struct {
	occ  []uint64
	offs []uint32 // start of every occupied bucket so far; scratch
	nOcc uint32
	key  uint32 // next bucket
	cum  uint32 // items in the buckets before key
	r    uint
}

// Reset starts a table of the given directory bucket count, whose items
// carry r key bits, that will hold at most maxItems items.
func (b *TableBuilder) Reset(buckets, maxItems int, r uint) {
	b.r = r
	b.occ = make([]uint64, (buckets+63)/64)
	// One slot past the last possible entry: Add stores before it knows
	// whether the bucket is occupied, and Finish adds the closing offset.
	if need := min(buckets, maxItems) + 1; cap(b.offs) < need {
		b.offs = make([]uint32, need)
	}
	b.offs = b.offs[:cap(b.offs)]
	b.nOcc, b.key, b.cum = 0, 0, 0
}

// Add appends the next len(counts) buckets, counts[i] items in the i-th of
// them, and overwrites each count with the position in the items at which that
// bucket starts — the scatter cursors of a counting sort. The loop has no
// branch on a count: at the occupancies a build sees (a tenth of the buckets
// non-empty on a fleet node, nine tenths under stream_ingest) such a branch
// mispredicts as often as not.
func (b *TableBuilder) Add(counts []uint32) {
	offs, nOcc, key, cum := b.offs, b.nOcc, b.key, b.cum
	for len(counts) > 0 {
		// The buckets that share one bitmap word.
		run := counts[:min(len(counts), int(64-key&63))]
		var word uint64
		for i, c := range run {
			run[i] = cum
			offs[nOcc] = cum
			occupied := (uint64(c) + 1<<32 - 1) >> 32 // 1 if c > 0
			word |= occupied << uint(i)
			nOcc += uint32(occupied)
			cum += c
		}
		b.occ[key>>6] |= word << (key & 63)
		key += uint32(len(run))
		counts = counts[len(run):]
	}
	b.nOcc, b.key, b.cum = nOcc, key, cum
}

// Finish returns the table over items, which the caller has filled at the
// positions Add handed out, each id<<r | the key's low r bits. The table
// keeps no reference to items.
func (b *TableBuilder) Finish(items []uint32) Table {
	occ, offs := b.seal()
	return TableFromWords(occ, offs, items, b.r)
}

// seal closes the directory and returns its bitmap and its offsets, the
// closing one included; the offsets are the builder's scratch.
func (b *TableBuilder) seal() ([]uint64, []uint32) {
	b.offs[b.nOcc] = b.cum
	return b.occ, b.offs[:b.nOcc+1]
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
	b.Reset(len(hist), len(keys), r)
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
// directory of the 2^b-bit bitmap, its rank words and an entry of
// bits.Len(n) bits — the closing one's — for every directory bucket the
// keys occupy, each packed array plus its 8 bytes of padding. The occupied
// buckets are charged as uniformly random keys fill them, 2^b·(1 −
// e^(−n/2^b)) on average with a spread under √(2^b)/3, plus a margin of
// 2·√(2^b) — six spreads — and never more than min(n, 2^b), all that can be
// occupied; LSH keys, which cluster, occupy fewer. (At one bucket a
// document that cap alone charged about 1.6 entries for each one a build
// kept.) So MemoryBytes of a fresh build never exceeds the bound unless its
// keys spread wider than random ones, and comes within a few percent of it
// over random ones.
func TableMemoryBound(n, k, l int) int64 {
	b := DirectoryBits(n, k)
	buckets := int64(1) << uint(b)
	words := (buckets + 63) / 64
	fill := float64(buckets) * -math.Expm1(-float64(n)/float64(buckets))
	occupied := int64(math.Ceil(fill + 2*math.Sqrt(float64(buckets))))
	entries := min(int64(n), buckets, occupied) + 1
	itemWidth := uint(bits.Len(uint(max(n, 1)-1)) + k - b) // ⌈log2 n⌉ + r
	perTable := int64(packedBytes(uint(n), itemWidth)+packedBytes(uint(entries), uint(bits.Len(uint(n))))) + words*(8+4)
	return int64(l) * perTable
}

// Static is an immutable PLSH index over n documents. Its fields are
// unexported and set only by the functions that return one — Build,
// BuildFromSketches, Merge and StaticFromTables — so the index a node's
// snapshot publishes is scanned lock-free by every query.
//
// Beside the tables it keeps every row's packed sketch (lshhash.Sketches),
// the sign-bit column Verify reads before a document. Like the rank words
// the column is derived, never stored: a build keeps the packed sketches it
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
// entry. Each table is walked once, in key order, reading its packed
// entries and items where they lie.
func signsFromTables(p lshhash.Params, n int, tables []Table, workers int) []uint64 {
	words := p.SketchWords()
	parts := make([]*lshhash.Sketches, words)
	sched.NewPool(workers).Run(words, func(w, _ int) {
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
			ebase, emask := t.entries.span(uint(t.nEntries))
			e := uint(0)
			start := load(ebase, 0, emask)
			for ow, word := range t.occ {
				for ; word != 0; word &= word - 1 {
					d := uint32(ow<<6+bits.TrailingZeros64(word)) << r
					e++
					end := load(ebase, e*t.entries.width, emask)
					for i := start; i < end; i++ {
						item := load(ibase, uint(i)*t.items.width, imask)
						part.OrKey(int(item>>r), a-lo, (d|item&low)&keep<<up)
					}
					start = end
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

// ValidateTables reports whether tables describe n documents under p's
// geometry: L = m(m−1)/2 tables, all indexing the same b key bits with
// K/2 ≤ b ≤ K, each with a 2^b-bit bitmap, one entry per set bit (plus one)
// running from 0 up to exactly its item count, and every item's id below n
// — the checks that keep a corrupt snapshot from becoming an index that
// reads out of bounds. An item's low key bits may hold anything: they only
// decide which key of its directory bucket it answers. That each packed
// array is as long as its count and width take is its constructor's to
// ensure (DecodeTable checks a decoded one); the entries and the items are
// read where they lie, so validating allocates nothing.
func ValidateTables(p lshhash.Params, n int, tables []Table) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if len(tables) != p.L() {
		return errors.New("core: table count does not match family")
	}
	r := tables[0].r
	if r > uint(p.K/2) {
		return errors.New("core: directory indexes fewer than K/2 key bits")
	}
	buckets := 1 << (uint(p.K) - r)
	words := (buckets + 63) / 64
	for l := range tables {
		t := &tables[l]
		if t.r != r {
			return errors.New("core: tables index different key bits")
		}
		if len(t.occ) != words {
			return errors.New("core: bucket bitmap size does not match its key bits")
		}
		if buckets < 64 && t.occ[0]>>uint(buckets) != 0 {
			return errors.New("core: bucket bitmap has bits past 2^b")
		}
		if occupied := int(t.rank[words-1]) + bits.OnesCount64(t.occ[words-1]); int(t.nEntries) != occupied+1 {
			return errors.New("core: offset count does not match occupied buckets")
		}
		entries := t.entries
		base, mask := entries.span(uint(t.nEntries))
		off := load(base, 0, mask)
		if off != 0 {
			return errors.New("core: offsets do not delimit items")
		}
		for e := uint(1); e < uint(t.nEntries); e++ {
			next := load(base, e*entries.width, mask)
			if next < off {
				return errors.New("core: offsets decrease")
			}
			off = next
		}
		if off != t.n {
			return errors.New("core: offsets do not delimit items")
		}
		items, limit := t.items, uint64(n)<<r // an item's id is below n when the item is below n<<r
		base, mask = items.span(uint(t.n))
		for i := range uint(t.n) {
			if uint64(load(base, i*items.width, mask)) >= limit {
				return errors.New("core: item id out of range")
			}
		}
	}
	return nil
}

// MemoryBytes reports the bytes the index holds: every table's packed items
// (the L·N·4 of Eq. 7.4's memory constraint, at ⌈log2 N⌉ + r bits an item) and
// its bucket directory, and the sign-bit column, counted at capacity.
func (s *Static) MemoryBytes() int64 {
	b := int64(cap(s.signs)) * 8
	for i := range s.tables {
		t := &s.tables[i]
		b += int64(cap(t.occ))*8 + int64(cap(t.rank))*4 + int64(cap(t.entries.buf)) + int64(cap(t.items.buf))
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
