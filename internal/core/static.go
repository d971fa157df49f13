// Package core implements the paper's primary contribution: the static PLSH
// structure — cache-conscious parallel construction of the L hash tables
// (§5.1) and the optimized batched query engine (§5.2).
//
// A static PLSH instance is an immutable index over N documents. Each of
// the L = m(m−1)/2 tables is a contiguous array of the N document indexes,
// ⌈log2 N⌉ bits each, partitioned by the table's k-bit key, plus a directory
// over the occupied buckets only: a 2^k-bit occupancy bitmap, a rank
// directory over it and one offset per occupied bucket, packed like the ids
// in the bits the largest offset needs — no pointers, no per-bucket
// allocations, and nothing sized by the buckets a table does not use or by
// the values it could hold (Fig. 3a of the paper keeps a dense 2^k+1 offsets
// array and 32-bit ids; DESIGN.md "Static tables" has why this one does
// not). Construction options reproduce the Fig. 4 ablation (1-level →
// 2-level → shared first level → vectorized hashing); query options
// reproduce the Fig. 5 ablation (set dedup → bitvector → optimized sparse
// dot product → candidate extraction → arena layout).
package core

import (
	"encoding/binary"
	"errors"
	"math/bits"
	"slices"
	"unsafe"

	"plsh/internal/lshhash"
	"plsh/internal/sparse"
)

// Table is one LSH hash table: its items are the N document indexes grouped
// by bucket, in key order. Only occupied buckets have a directory entry:
// bit b of occ is set when bucket b has one, rank[w] counts the set bits
// below word w, and the bucket with the j-th set bit holds the items from
// where entry j starts to where entry j+1 does, one closing entry at the
// item count ending the last. A builder sets exactly the bits of the
// non-empty buckets; Merge may then leave a bucket empty whose bit stays
// set, so a set bit promises an entry, not an item.
// The rank words are derived, never stored: every constructor counts them
// from the bitmap (rankOf).
//
// Items and entries are one encoding used twice: a packed array as wide as
// its largest value needs. An item takes ⌈log2 N⌉ bits in a table over N
// documents — 13 at a fleet node's 8 000, 24 at the paper's 10.5 M — and an
// entry the bit length of the item count, the closing entry being the
// largest. TableFromWords packs both, DecodeTable copies them as
// AppendEncoded wrote them; the probe kernels (through span and load),
// Bucket, AppendItems and appendOffsets are the readers.
//
// A Table is written once. Its fields are unexported, only the functions
// that return a Table (TableFromWords, DecodeTable, TableBuilder's Finish
// and GroupByKey, Merge's per-table copy) set them, and no method writes
// them, so the tables of a published index are scanned lock-free.
type Table struct {
	occ  []uint64 // ⌈2^k/64⌉ words
	rank []uint32 // one per word of occ

	items packed
	n     uint32 // the item count

	entries  packed // one per set bit of occ, then the closing one
	nEntries uint32
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
	var union uint32 // its highest bit is the largest value's
	for _, v := range vals {
		union |= v
	}
	width := uint(bits.Len32(union))
	buf := make([]byte, packedBytes(uint(len(vals)), width))
	// acc holds the nb bits that do not yet fill a 32-bit word, which starts
	// at byte at. Nothing stored is read back: an OR into the array would
	// load bytes the previous store has just half-written, which the store
	// buffer cannot forward, and that made packing twice as slow.
	var acc uint64
	var nb, at uint
	for _, v := range vals {
		acc |= uint64(v) << (nb & 31) // nb < 32 and width ≤ 32: acc holds the value
		nb += width
		if nb >= 32 {
			binary.LittleEndian.PutUint32(buf[at:], uint32(acc))
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
	dst = slices.Grow(dst, int(n))
	base, mask := p.span(uint(n))
	for i := range uint(n) {
		dst = append(dst, load(base, i*p.width, mask))
	}
	return dst
}

// packedBytes is the length of the packed array of n values of width bits.
func packedBytes(n, width uint) int {
	return int((n*width+7)/8 + packedPad)
}

// slot locates bucket key in the directory: the index of its entry and 1,
// or (0, 0) when its bit is clear — so that entries slot and slot+set bound
// the bucket either way, an empty one by reading entry 0 twice. It is
// arithmetic on the two loaded words only; the probe relies on it having no
// branch (see stageBuckets).
func (t *Table) slot(key uint32) (slot, set uint32) {
	w, bit := key>>6, key&63
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

// Bucket appends the document indexes in bucket key to dst.
func (t *Table) Bucket(dst []uint32, key uint32) []uint32 {
	lo, hi := t.bounds(t.slot(key))
	for i := lo; i < hi; i++ {
		dst = append(dst, t.items.at(i))
	}
	return dst
}

// AppendItems appends every item, in key order, to dst: the items with the
// packing undone, as Merge edits them.
func (t *Table) AppendItems(dst []uint32) []uint32 { return t.items.appendTo(dst, t.n) }

// appendOffsets appends the start of every entry, the closing one included,
// to dst: the entries with the packing undone, as Merge edits them.
func (t *Table) appendOffsets(dst []uint32) []uint32 { return t.entries.appendTo(dst, t.nEntries) }

// TableFromWords returns the table over the bitmap occ, which it keeps, with
// offsets — one per set bit of occ, then the item count — as its entries and
// ids as its items, each packed in the bits the largest of them needs (see
// pack; neither slice is kept). Every builder and in-place rewrite ends
// here, and so does a table that was stored as 32-bit words, as snapshot
// version 2 stored them: what the words say is ValidateTables' to judge.
func TableFromWords(occ []uint64, offsets, ids []uint32) Table {
	return Table{
		occ: occ, rank: rankOf(occ),
		entries: pack(offsets), nEntries: uint32(len(offsets)),
		items: pack(ids), n: uint32(len(ids)),
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

// AppendEncoded appends the table's encoding to dst: the bitmap, as its word
// count and then its words, followed by the entries and the items, each as
// its value count, its width and its packed bytes verbatim, padding
// included — every integer little-endian, the byte order pack lays values
// out in. The rank words are left out; DecodeTable counts them again. A
// snapshot stores a table as this, so the file holds a table at the bits it
// takes in memory.
func (t *Table) AppendEncoded(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(t.occ)))
	for _, word := range t.occ {
		dst = binary.LittleEndian.AppendUint64(dst, word)
	}
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
// items. What the arrays hold is ValidateTables' to judge.
func DecodeTable(b []byte) (Table, error) {
	if len(b) < 4 {
		return Table{}, errEncoding
	}
	words := int(binary.LittleEndian.Uint32(b))
	if b = b[4:]; len(b)/8 < words {
		return Table{}, errEncoding
	}
	occ := make([]uint64, words)
	for w := range occ {
		occ[w] = binary.LittleEndian.Uint64(b[8*w:])
	}
	t := Table{occ: occ, rank: rankOf(occ)}
	var ok bool
	if t.entries, t.nEntries, b, ok = cutPacked(b[8*words:]); !ok {
		return Table{}, errEncoding
	}
	if t.items, t.n, b, ok = cutPacked(b); !ok || len(b) != 0 {
		return Table{}, errEncoding
	}
	return t, nil
}

// cutPacked decodes the packed array appendEncoded wrote at the front of b,
// and returns it, its value count and the bytes after it; ok is false when
// b is too short to hold it or its width is past 32.
func cutPacked(b []byte) (p packed, n uint32, rest []byte, ok bool) {
	if len(b) < 8 {
		return packed{}, 0, nil, false
	}
	n, width := binary.LittleEndian.Uint32(b), uint(binary.LittleEndian.Uint32(b[4:]))
	if b = b[8:]; width > 32 || len(b) < packedBytes(uint(n), width) {
		return packed{}, 0, nil, false
	}
	buf := make([]byte, packedBytes(uint(n), width))
	copy(buf, b)
	return packed{buf: buf, width: width}, n, b[len(buf):], true
}

// TableBuilder assembles Tables from per-bucket item counts presented in
// key order. Reset starts a table, Add takes the next run of buckets, Finish
// seals it. A builder owns an offsets scratch buffer that it reuses from
// table to table, so building L tables on one builder allocates each table's
// own arrays and nothing else.
type TableBuilder struct {
	occ  []uint64
	offs []uint32 // start of every occupied bucket so far; scratch
	nOcc uint32
	key  uint32 // next bucket
	cum  uint32 // items in the buckets before key
}

// Reset starts a table of the given bucket count that will hold at most
// maxItems items.
func (b *TableBuilder) Reset(buckets, maxItems int) {
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
// positions Add handed out. The table keeps no reference to items.
func (b *TableBuilder) Finish(items []uint32) Table {
	b.offs[b.nOcc] = b.cum
	return TableFromWords(b.occ, b.offs[:b.nOcc+1], items)
}

// GroupByKey builds the table of items 0..len(keys)-1, item i in bucket
// keys[i], in one counting sort over hist — scratch with one entry per
// bucket.
func (b *TableBuilder) GroupByKey(keys, hist []uint32) Table {
	clear(hist)
	for _, k := range keys {
		hist[k]++
	}
	b.Reset(len(hist), len(keys))
	b.Add(hist)
	items := make([]uint32, len(keys))
	for i, k := range keys {
		items[hist[k]] = uint32(i)
		hist[k]++
	}
	return b.Finish(items)
}

// TableMemoryBound bounds the bytes of l tables of 2^k buckets over n
// documents. Eq. 7.4 charges (L·N + 2^k·L)·4; here an item costs the
// ⌈log2 n⌉ bits the largest id needs, and in place of the 2^k·L·4 is a
// directory of the bitmap, its rank words and an entry of bits.Len(n) bits —
// the closing one's — for every bucket that can be occupied, each packed
// array plus its 8 bytes of padding. MemoryBytes of a freshly built Static
// never exceeds it and reaches it when min(n, 2^k) buckets are in use.
func TableMemoryBound(n, k, l int) int64 {
	buckets := int64(1) << uint(k)
	words := (buckets + 63) / 64
	entries := min(int64(n), buckets) + 1
	itemWidth := uint(bits.Len(uint(max(n, 1) - 1))) // ⌈log2 n⌉
	perTable := int64(packedBytes(uint(n), itemWidth)+packedBytes(uint(entries), uint(bits.Len(uint(n))))) + words*(8+4)
	return int64(l) * perTable
}

// Static is an immutable PLSH index over n documents. Its fields are
// unexported and set only by the functions that return one — Build,
// BuildFromSketches, Merge and StaticFromTables — so the index a node's
// snapshot publishes is scanned lock-free by every query.
type Static struct {
	fam    *lshhash.Family
	n      int
	tables []Table
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

// StaticFromTables reassembles a Static index from previously serialized
// tables (see internal/persist), taking ownership of the slice. The tables
// must pass ValidateTables for n documents under fam's geometry.
func StaticFromTables(fam *lshhash.Family, n int, tables []Table) (*Static, error) {
	if err := ValidateTables(fam.Params(), n, tables); err != nil {
		return nil, err
	}
	return &Static{fam: fam, n: n, tables: tables}, nil
}

// ValidateTables reports whether tables describe n documents under p's
// geometry: L = m(m−1)/2 tables, each with a 2^k-bit bitmap, one entry per
// set bit (plus one) running from 0 up to exactly its item count, and every
// item id below n — the checks that keep a corrupt snapshot from becoming an
// index that reads out of bounds. That each packed array is as long as its
// count and width take is its constructor's to ensure (DecodeTable checks a
// decoded one); the entries and the items are read where they lie, so
// validating allocates nothing.
func ValidateTables(p lshhash.Params, n int, tables []Table) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if len(tables) != p.L() {
		return errors.New("core: table count does not match family")
	}
	words := (p.Buckets() + 63) / 64
	for l := range tables {
		t := &tables[l]
		if len(t.occ) != words {
			return errors.New("core: bucket bitmap size does not match K")
		}
		if p.Buckets() < 64 && t.occ[0]>>uint(p.Buckets()) != 0 {
			return errors.New("core: bucket bitmap has bits past 2^K")
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
		items := t.items
		base, mask = items.span(uint(t.n))
		for i := range uint(t.n) {
			if int(load(base, i*items.width, mask)) >= n {
				return errors.New("core: item id out of range")
			}
		}
	}
	return nil
}

// MemoryBytes reports the bytes the index holds: every table's packed items
// (the L·N·4 of Eq. 7.4's memory constraint, at ⌈log2 N⌉ bits an item) and
// its bucket directory, counted at capacity.
func (s *Static) MemoryBytes() int64 {
	var b int64
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
