// Package delta implements the insert-optimized streaming LSH structure of
// §6.1.
//
// Static PLSH tables are contiguous arrays sized exactly to their content —
// superb to query, expensive to update. Delta tables invert the trade-off:
// each of the L tables keeps independently growable buckets, so a batch of
// new documents is hashed once and appended to L buckets each, with the L
// tables updated fully in parallel ("insertions can be done independently
// for each table, allowing us to exploit multiple threads", §6.1). Queries
// walk the same buckets but pay pointer-chasing and hash-lookup costs,
// which is why the paper bounds the delta fraction η and merges into the
// static structure periodically.
//
// Buckets are a hash map per table rather than the paper's dense 2^k array
// of C++ vectors: Go slice headers are 24 bytes, so a dense 2^k × L array
// at k=16, L=780 would spend tens of gigabytes on empty buckets. The map
// preserves the structure's behaviour (append-only buckets, per-table
// independence, slower-than-static queries) at memory proportional to
// content. What the dense array gave for free — an empty bucket answers
// without a hash lookup — comes back as one occupancy bitmap per table,
// tested before the map is touched; DESIGN.md "Delta buckets" records both.
package delta

import (
	"math/bits"

	"plsh/internal/bitvec"
	"plsh/internal/lshhash"
	"plsh/internal/sched"
	"plsh/internal/sparse"
)

// Table is a streaming LSH structure. Inserted documents get delta-local
// IDs 0..Len()-1 in arrival order. Table is not internally synchronized;
// the owning node serializes inserts. Once Freeze is called the table is
// immutable and every read-side method (Candidates, Occupied, Signs,
// MemoryBytes) is safe for arbitrary concurrent use — frozen tables are
// the building blocks of the node's copy-on-write query snapshots. The
// frozen flag is what keeps a published table write-once: Insert panics on
// a frozen table, and the other writers (sizeOcc, fill, fromSketches) run
// only on a table still being built.
type Table struct {
	fam     *lshhash.Family
	pool    *sched.Pool
	buckets []map[uint32][]uint32 // per table l: key → item IDs
	sk      *lshhash.Sketches     // packed: the sign-bit column, and what Coalesce rebuckets from
	n       int
	frozen  bool

	// Bucket occupancy, one bitmap per table: table l owns words
	// occ[l*occWords:(l+1)*occWords], and bit key mod its length is set
	// when bucket key of table l holds an item (a clear bit proves the
	// bucket empty; a set bit may be another key's). occBits fixes the size.
	occ      []uint64
	occWords int
}

// New returns an empty delta table over the family.
func New(fam *lshhash.Family, workers int) *Table {
	p := fam.Params()
	d := &Table{
		fam:     fam,
		pool:    sched.NewPool(workers),
		buckets: make([]map[uint32][]uint32, p.L()),
		sk:      p.NewSketches(0),
	}
	for l := range d.buckets {
		d.buckets[l] = make(map[uint32][]uint32)
	}
	d.sizeOcc(0)
	return d
}

// occBits is the sizing rule of the occupancy bitmaps: bits per table for a
// segment of rows rows over K-bit keys — the power of two holding at least
// 16 bits per row, no fewer than one word, and no more than 2^K, where a
// bit is a bucket and the bitmap is exact. A table has at most rows
// occupied buckets, so under 2^K a probe of an empty bucket finds a set bit
// less than once in 16 times.
func occBits(rows, k int) int {
	b := 1 << bits.Len(uint(max(16*rows, 64)-1))
	return min(b, max(1<<k, 64))
}

// sizeOcc gives the bitmaps room for rows rows and reports whether it
// replaced them (with zeroed ones: the caller re-marks the occupied
// buckets). Bitmaps only ever grow. Its callers are New and fill: a table
// still being built.
func (d *Table) sizeOcc(rows int) bool {
	p := d.fam.Params()
	words := occBits(rows, p.K) / 64
	if words <= d.occWords {
		return false
	}
	d.occ = make([]uint64, p.L()*words)
	d.occWords = words
	return true
}

// occOf returns table l's bitmap and the mask that takes a key to its bit.
func (d *Table) occOf(l int) (words []uint64, mask uint32) {
	return d.occ[l*d.occWords : (l+1)*d.occWords], uint32(d.occWords*64 - 1)
}

// markOcc records that bucket key of the table owning words is occupied.
func markOcc(words []uint64, mask, key uint32) {
	slot := key & mask
	words[slot>>6] |= 1 << (slot & 63)
}

// Len returns the number of inserted documents.
func (d *Table) Len() int { return d.n }

// Signs returns the words of the table's packed sketches, one row per
// inserted document: the sign-bit column core.Verify reads before a
// document. The same sketches are why a document is hashed once: Coalesce
// rebuckets from them, and the merge into the static index builds its
// delta-side tables from them (ConcatSketches, then core.BuildFromSketches).
func (d *Table) Signs() []uint64 { return d.sk.Data }

// Freeze marks the table immutable. Further Insert calls panic; reads need
// no synchronization. Freezing is idempotent. The node freezes a table
// before it joins the segment list, so a snapshot publishes frozen tables
// only.
func (d *Table) Freeze() { d.frozen = true }

// IsFrozen reports whether Freeze has been called.
func (d *Table) IsFrozen() bool { return d.frozen }

// Insert hashes the batch once and appends every document to its bucket in
// all L tables, parallelized over tables (each worker owns a disjoint set
// of tables, so no locks are needed). It returns the delta-local ID of the
// first inserted document. Insert panics on a frozen table; one writer at
// a time may call it on a table not yet frozen.
func (d *Table) Insert(vs []sparse.Vector) int {
	if d.frozen {
		panic("delta: Insert on frozen table")
	}
	first := d.n
	d.sk = d.fam.AppendSketches(d.sk, vs)
	d.n += len(vs)
	d.fill(first, nil)
	return first
}

// fill appends rows [first, Len()) to their buckets in all L tables, in
// parallel over tables, but not the rows skip reports true for. When the
// rows outgrow the occupancy bitmaps it regrows them and re-marks the
// buckets already filled. Insert and fromSketches are its callers.
func (d *Table) fill(first int, skip func(localID int) bool) {
	pairs := d.fam.Pairs()
	regrown := d.sizeOcc(d.n)
	d.pool.Run(len(d.buckets), func(l, _ int) {
		a, b := int(pairs[l].A), int(pairs[l].B)
		m := d.buckets[l]
		occ, mask := d.occOf(l)
		if regrown {
			for key := range m {
				markOcc(occ, mask, key)
			}
		}
		for id := first; id < d.n; id++ {
			if skip != nil && skip(id) {
				continue
			}
			key := d.sk.TableKey(id, a, b)
			markOcc(occ, mask, key)
			m[key] = append(m[key], uint32(id))
		}
	})
}

// Candidates gathers the deduplicated delta-local candidate IDs for a query
// sketch into cand, using seen (capacity ≥ Len()) for duplicate
// elimination, and returns the extended slice plus the raw collision count.
// The caller owns resetting seen; Candidates leaves exactly the returned
// IDs set, so seen.ResetList(new portion) restores it.
//
// The probe is staged like core's (DESIGN.md "Q2/Q3 leaf kernels"), a block
// of tables at a time. Pass 1 composes each table's key and tests its
// occupancy bit, writing the (table, key) pair into the block's scratch
// unconditionally and advancing the write index by the bit — no branch on a
// loaded word, so the bit tests of a block are all in flight together.
// Pass 2 looks up the maps for the survivors only: a small segment occupies
// a few percent of a table's buckets, and the lookups that cannot hit — each
// a hash, a dependent cache miss and a branch on what it loads — are most of
// what a delta probe used to cost.
func (d *Table) Candidates(sketch []uint32, seen *bitvec.Vector, cand []uint32) ([]uint32, int) {
	pairs := d.fam.Pairs()[:len(d.buckets)]
	half := uint(d.fam.Params().K / 2)
	occ, words := d.occ, d.occWords
	mask := uint32(words*64 - 1)
	var tables, keys [probeBlock]uint32
	collisions := 0
	for l0 := 0; l0 < len(pairs); l0 += probeBlock {
		n := 0
		for i, pair := range pairs[l0:min(l0+probeBlock, len(pairs))] {
			l := l0 + i
			key := pair.Key(sketch, half)
			slot := key & mask
			tables[n], keys[n] = uint32(l), key
			n += int(occ[l*words+int(slot>>6)] >> (slot & 63) & 1)
		}
		for i := 0; i < n; i++ {
			bucket := d.buckets[tables[i]][keys[i]]
			collisions += len(bucket)
			for _, id := range bucket {
				if seen.TestAndSet(int(id)) {
					cand = append(cand, id)
				}
			}
		}
	}
	return cand, collisions
}

// probeBlock is how many tables Candidates stages per pass: its scratch is
// two arrays of this length on the stack, so the probe needs no workspace
// and the default L = 120 is one block.
const probeBlock = 128

// fromSketches builds a frozen table over precomputed sketches: row i of sk
// becomes delta-local ID i. Rows for which skip reports true are omitted
// from every bucket (tombstone compaction) but still count toward Len, so
// local IDs stay aligned with sketch rows and with the owning arena. The
// caller transfers ownership of sk; it must not be mutated afterwards.
//
// This is the segment-coalescing path: rebucketing reuses the hashing work
// retained in the source tables' sketches instead of rehashing documents.
func fromSketches(fam *lshhash.Family, sk *lshhash.Sketches, workers int, skip func(localID int) bool) *Table {
	d := New(fam, workers)
	d.sk = sk
	d.n = sk.N()
	d.fill(0, skip)
	d.Freeze()
	return d
}

// Coalesce builds one frozen table spanning a's rows followed by b's rows
// (local IDs 0..a.Len()-1 then a.Len()..a.Len()+b.Len()-1), dropping rows
// for which skip reports true. Both inputs must be frozen; they are read,
// never mutated, so in-flight snapshot readers of a and b are unaffected.
func Coalesce(fam *lshhash.Family, a, b *Table, workers int, skip func(localID int) bool) *Table {
	return CoalesceRun(fam, []*Table{a, b}, workers, skip)
}

// CoalesceRun is Coalesce over a run of any length, oldest first: one frozen
// table spanning every table's rows in order, each row rebucketed once
// however long the run — where folding the run pair by pair rebuckets the
// oldest rows once per fold.
func CoalesceRun(fam *lshhash.Family, run []*Table, workers int, skip func(localID int) bool) *Table {
	return fromSketches(fam, ConcatSketches(run), workers, skip)
}

// ConcatSketches returns a copy of the sketches of a run of frozen tables,
// oldest first: row i of the result is the i-th document of the run.
func ConcatSketches(run []*Table) *lshhash.Sketches {
	rows := 0
	for _, t := range run {
		if !t.frozen {
			panic("delta: run holds an unfrozen table")
		}
		rows += t.n
	}
	out := run[0].fam.Params().NewSketches(rows)
	at := 0
	for _, t := range run {
		at += copy(out.Data[at:], t.sk.Data)
	}
	return out
}

// Occupied reports table l's occupancy bit for key: false proves bucket key
// empty, true sends Candidates to the map — the read-only view tests and
// benchmarks count lookups with.
func (d *Table) Occupied(l int, key uint32) bool {
	words, mask := d.occOf(l)
	slot := key & mask
	return words[slot>>6]>>(slot&63)&1 != 0
}

// MemoryBytes approximates the structure's footprint: bucket contents plus
// map bookkeeping plus occupancy bitmaps plus the packed sketches.
func (d *Table) MemoryBytes() int64 {
	b := int64(len(d.occ))*8 + int64(len(d.sk.Data))*8
	for l := range d.buckets {
		for _, items := range d.buckets[l] {
			b += int64(cap(items))*4 + 48 // slice payload + map entry overhead
		}
	}
	return b
}
