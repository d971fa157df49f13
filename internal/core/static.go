// Package core implements the paper's primary contribution: the static PLSH
// structure — cache-conscious parallel construction of the L hash tables
// (§5.1) and the optimized batched query engine (§5.2).
//
// A static PLSH instance is an immutable index over N documents. Each of
// the L = m(m−1)/2 tables is a contiguous array of the N document indexes
// partitioned by the table's k-bit key, plus a directory over the occupied
// buckets only: a 2^k-bit occupancy bitmap, a rank directory over it and
// one 16-bit offset per occupied bucket against a 32-bit base per 64 of
// them — no pointers, no per-bucket allocations, and nothing sized by the
// buckets a table does not use or by the items it could address (Fig. 3a of
// the paper keeps a dense 2^k+1 offsets array; DESIGN.md "Static tables" has
// why this one does not). Construction options reproduce the Fig. 4
// ablation (1-level → 2-level → shared first level → vectorized hashing);
// query options reproduce the Fig. 5 ablation (set dedup → bitvector →
// optimized sparse dot product → candidate extraction → arena layout).
package core

import (
	"errors"
	"math/bits"
	"slices"

	"plsh/internal/lshhash"
	"plsh/internal/sched"
	"plsh/internal/sparse"
)

// Table is one LSH hash table: Items holds the N document indexes grouped
// by bucket, in key order. Only occupied buckets have a directory entry:
// bit b of Occ is set when bucket b has one, Rank[w] counts the set bits
// below word w, and the bucket with the j-th set bit occupies Items from
// where entry j starts to where entry j+1 does, one closing entry at
// len(Items) ending the last. A builder sets exactly the bits of the
// non-empty buckets; Merge and Compact may then leave a bucket
// empty whose bit stays set, so a set bit promises an entry, not an item.
//
// An entry is 16 bits: entry e starts at base[e>>6]+off[e], base holding
// the start of every 64th entry in full. Sixty-four consecutive occupied
// buckets hold a few hundred items, so the 16 bits are never short in
// practice; a table in which some 64 entries do span 2^16 items or more — one
// document repeated 70 000 times — keeps full 32-bit entries in wide
// instead. SetOffsets, the one writer of the three, picks the form from the
// offsets it is given; start and bounds, the readers, serve both.
//
//plshvet:frozen tables are reached through a published snapshot; queries scan them lock-free
type Table struct {
	Occ   []uint64 // ⌈2^k/64⌉ words
	Rank  []uint32 // one per word of Occ
	Items []uint32

	// The entries, one per set bit of Occ plus the closing one: base and off,
	// or wide.
	base []uint32 // one per 64 entries
	off  []uint16
	wide []uint32 // nil but for a table off cannot address
}

// entryBlock is how many directory entries share one base: 2^entryShift.
// At 64 the bases add half a bit to an entry's sixteen, and the largest span
// 64 entries cover in the suite's corpus — under 700 items, at any N it is
// run at — is a hundredth of what sixteen bits address.
const (
	entryShift = 6
	entryBlock = 1 << entryShift
)

// slot locates bucket key in the directory: the index of its entry and 1,
// or (0, 0) when its bit is clear — so that entries slot and slot+set bound
// the bucket either way, an empty one by reading entry 0 twice. It is
// arithmetic on the two loaded words only; the probe relies on it having no
// branch (see stageBuckets).
func (t *Table) slot(key uint32) (slot, set uint32) {
	w, bit := key>>6, key&63
	word := t.Occ[w]
	set = uint32(word>>bit) & 1
	below := uint32(bits.OnesCount64(word & (1<<bit - 1)))
	return (t.Rank[w] + below) & -set, set
}

// bounds returns where entries slot and slot+set start: the bounds in Items
// of the bucket slot located. Its one branch is on the table's form, the
// same way for every table of every index but a pathological one — not on a
// directory word, which the probe must not wait for (see stageBuckets).
func (t *Table) bounds(slot, set uint32) (lo, hi uint32) {
	next := slot + set
	if t.wide != nil {
		return t.wide[slot], t.wide[next]
	}
	return t.base[slot>>entryShift] + uint32(t.off[slot]), t.base[next>>entryShift] + uint32(t.off[next])
}

// start returns where entry e starts in Items.
func (t *Table) start(e uint32) uint32 {
	lo, _ := t.bounds(e, 0)
	return lo
}

// entries returns the number of directory entries, the closing one included.
func (t *Table) entries() int {
	if t.wide != nil {
		return len(t.wide)
	}
	return len(t.off)
}

// Bucket returns the document indexes in bucket key.
func (t *Table) Bucket(key uint32) []uint32 {
	lo, hi := t.bounds(t.slot(key))
	return t.Items[lo:hi]
}

// AppendOffsets appends the start of every entry, the closing one included,
// to dst: the directory with the entry encoding undone, as a snapshot stores
// it and as the in-place rewrites edit it.
func (t *Table) AppendOffsets(dst []uint32) []uint32 {
	if t.wide != nil {
		return append(dst, t.wide...)
	}
	dst = slices.Grow(dst, len(t.off))
	for b, base := range t.base {
		for _, d := range t.off[b*entryBlock : min((b+1)*entryBlock, len(t.off))] {
			dst = append(dst, base+uint32(d))
		}
	}
	return dst
}

// SetOffsets makes offsets — one per set bit of Occ, then len(Items) — the
// table's entries, in 16 bits each if every block of 64 allows it. It keeps
// no reference to offsets and loses nothing of them whatever they hold, so a
// decoder may narrow first and let ValidateTables judge the result.
//
//plshvet:prepublish the one writer of the entry arrays; every builder and in-place rewrite ends here, before the table is published
func (t *Table) SetOffsets(offsets []uint32) {
	base := make([]uint32, (len(offsets)+entryBlock-1)>>entryShift)
	off := make([]uint16, len(offsets))
	var over uint32 // bits 16 and up are set in it once some entry does not fit
	for b := range base {
		block := offsets[b*entryBlock : min((b+1)*entryBlock, len(offsets))]
		narrow := off[b*entryBlock:][:len(block)]
		first := block[0]
		base[b] = first
		for i, o := range block {
			d := o - first // wraps past 2^16 if the offsets decrease
			over |= d
			narrow[i] = uint16(d)
		}
	}
	var wide []uint32
	if over>>16 != 0 {
		base, off = nil, nil
		wide = make([]uint32, len(offsets)) // not slices.Clone: MemoryBytes counts capacity
		copy(wide, offsets)
	}
	t.base, t.off, t.wide = base, off, wide
}

// TableBuilder assembles Tables from per-bucket item counts presented in
// key order — the one place a bitmap and its rank words are written. Reset
// starts a table, Add takes the next run of buckets, Finish seals it. A
// builder owns an offsets scratch buffer that it reuses from table to table,
// so building L tables on one builder allocates each table's own arrays and
// nothing else.
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
// them, and overwrites each count with the position in Items at which that
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

// Finish returns the table over items, which the caller has filled (or
// will fill) at the positions Add handed out.
func (b *TableBuilder) Finish(items []uint32) Table {
	t := Table{Occ: b.occ, Rank: make([]uint32, len(b.occ)), Items: items}
	var rank uint32
	for w, word := range t.Occ {
		t.Rank[w] = rank
		rank += uint32(bits.OnesCount64(word))
	}
	b.offs[b.nOcc] = b.cum
	t.SetOffsets(b.offs[:b.nOcc+1])
	return t
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
// documents: the L·N·4 item bytes of Eq. 7.4, and in place of its 2^k·L·4 a
// directory of the bitmap, its rank words, and two bytes an entry plus four
// per 64 entries for every bucket that can be occupied. MemoryBytes of a
// freshly built Static never exceeds it and reaches it when min(n, 2^k)
// buckets are in use — a table forced into 32-bit entries aside (see Table),
// which no sizing rule should budget for.
func TableMemoryBound(n, k, l int) int64 {
	buckets := int64(1) << uint(k)
	words := (buckets + 63) / 64
	entries := min(int64(n), buckets) + 1
	perTable := int64(n)*4 + words*(8+4) + entries*2 + (entries+entryBlock-1)/entryBlock*4
	return int64(l) * perTable
}

// Static is an immutable PLSH index over n documents.
//
//plshvet:frozen published inside the node snapshot; queries scan it lock-free
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
// geometry: L = m(m−1)/2 tables, each with a 2^k-bit bitmap, the rank
// directory that bitmap implies, one entry per set bit (plus one), in either
// form, delimiting exactly its item count, and every item id below n — the
// shape checks that keep a corrupt snapshot from becoming an index that reads
// out of bounds.
func ValidateTables(p lshhash.Params, n int, tables []Table) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if len(tables) != p.L() {
		return errors.New("core: table count does not match family")
	}
	words := (p.Buckets() + 63) / 64
	var offs []uint32 // each table's entries in turn, widened
	for l := range tables {
		t := &tables[l]
		if len(t.Occ) != words || len(t.Rank) != words {
			return errors.New("core: bucket bitmap or rank directory size does not match K")
		}
		if p.Buckets() < 64 && t.Occ[0]>>uint(p.Buckets()) != 0 {
			return errors.New("core: bucket bitmap has bits past 2^K")
		}
		var rank uint32
		for w, word := range t.Occ {
			if t.Rank[w] != rank {
				return errors.New("core: rank directory does not count the bitmap")
			}
			rank += uint32(bits.OnesCount64(word))
		}
		if t.entries() != int(rank)+1 || t.wide == nil && len(t.base) != (len(t.off)+entryBlock-1)>>entryShift {
			return errors.New("core: offset count does not match occupied buckets")
		}
		offs = t.AppendOffsets(offs[:0])
		if offs[0] != 0 || int(offs[rank]) != len(t.Items) {
			return errors.New("core: offsets do not delimit items")
		}
		for b := 1; b < len(offs); b++ {
			if offs[b] < offs[b-1] {
				return errors.New("core: offsets decrease")
			}
		}
		for _, id := range t.Items {
			if int(id) >= n {
				return errors.New("core: item id out of range")
			}
		}
	}
	return nil
}

// Compact removes every item for which drop reports true from every bucket,
// in place, rewriting the entries to stay consistent (a bucket emptied here
// keeps its directory entry, now of zero length), so that deleted rows
// never become candidates again instead of being filtered on every query for
// the rest of the index's life. Len is unchanged (item IDs keep their
// meaning); only bucket membership shrinks. A streaming merge no longer
// calls it — Merge leaves the tombstoned items out as it copies — and Build
// followed by Compact is what Merge's results are tested against.
//
// Compact must run before the index is published to readers; it mutates
// Items and the entries. drop may be called concurrently from multiple
// goroutines (tables compact in parallel).
//
//plshvet:prepublish in-place build step; documented to run before the index is published
func (s *Static) Compact(drop func(id uint32) bool, workers int) {
	pool := sched.NewPool(workers)
	pool.Run(len(s.tables), func(l, _ int) {
		t := &s.tables[l]
		offs := t.AppendOffsets(nil)
		var w uint32
		for b := 0; b < len(offs)-1; b++ {
			lo, hi := offs[b], offs[b+1]
			offs[b] = w
			// w never exceeds the read cursor, so the in-place copy is safe.
			for _, id := range t.Items[lo:hi] {
				if !drop(id) {
					t.Items[w] = id
					w++
				}
			}
		}
		offs[len(offs)-1] = w
		t.Items = t.Items[:w]
		t.SetOffsets(offs)
	})
}

// MemoryBytes reports the bytes the index holds: every table's items (the
// L·N·4 of Eq. 7.4's memory constraint) and its bucket directory, counted
// at capacity — a compacted table still owns the array it was built in.
func (s *Static) MemoryBytes() int64 {
	var b int64
	for i := range s.tables {
		t := &s.tables[i]
		b += int64(cap(t.Occ))*8 + int64(cap(t.Rank)+cap(t.Items)+cap(t.base)+cap(t.wide))*4 + int64(cap(t.off))*2
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
