package core

import (
	"plsh/internal/bitvec"
	"plsh/internal/lshhash"
	"plsh/internal/sparse"
)

// The hot loops of Steps Q2 and Q3 live here, one small function each,
// taking slices and scalars as arguments. Everything a query varies
// (tombstones, radius) is resolved by the caller, so a loop tests only
// values that sit in registers; DESIGN.md "Q2/Q3 leaf kernels" has
// the measurements that put them here.

// stageBuckets is the staging of the Q2 probe: it composes the L table
// keys from the sketch and loads the bounds of each selected directory
// bucket — the key's top b bits — into lo and hi (length ≥ len(tables);
// returned cut to it), touching no bucket. Stage 1 reads each table's
// bitmap word and rank word — 1.5 to 3 bits a document, 1.5 KB a table at
// 8 000 documents and 12 KB from 2^15 on under K=16, the part of the index a
// cache can hold — and turns them into the directory bucket's entry by
// arithmetic alone (Table.slot); a clear bit comes out as entry 0 with zero
// length, so an empty bucket ends at a line every empty probe of that table
// shares. Stage 2 loads where that entry and the next one start
// (Table.bounds): two adjacent packed entries, the same load, shift and mask
// as an item's. Neither loop has a branch — bounds checks aside — so the L
// misses of each stage are all in flight together: the structural stand-in
// for §5.2.2's software prefetch. A probe that walked each bucket as soon
// as it had its bounds would close every iteration with a loop branch on a
// value still in flight from memory, and each misprediction of it
// serializes the next table's miss behind this one's.
func stageBuckets(tables []Table, pairs []lshhash.Pair, sketch []uint32, half uint, lo, hi []uint32) ([]uint32, []uint32) {
	pairs = pairs[:len(tables)]
	lo = lo[:len(tables)]
	hi = hi[:len(tables)]
	for l := range tables {
		lo[l], hi[l] = tables[l].slot(pairs[l].Key(sketch, half))
	}
	for l := range tables {
		lo[l], hi[l] = tables[l].bounds(lo[l], hi[l])
	}
	return lo, hi
}

// ProbeMark is the Q2 probe: it marks every item of the L buckets
// the sketch selects into the dedup bitvector words and returns the
// collision count (bucket entries, duplicates included). After
// stageBuckets, a third staging loop loads the item at each bucket's start
// into first (length ≥ len(tables)) — the line every walk of the bucket
// begins with, which a directory bucket of about one item a document has
// more often than not; for an empty bucket it is whatever lies there,
// inside the array, which the walk masks — so those L misses overlap too.
// Pass 2 then walks each directory bucket with trip counts already in
// cache, beginning from its staged item, so a mispredicted bucket length
// costs a pipeline refill, not a memory round trip; each further item is
// one load, a shift and a mask behind one bounds check a bucket
// (packed.span). Every item is then split by one multiply into its id and
// its key bits (Table.keyMatch), and it is in the key's bucket when those
// key bits are the key's. That match is computed, not branched on: it is a
// 0 or 1 that the mark is shifted by and the count adds, so an item of the
// directory bucket under another key marks nothing and counts nothing, and
// a table whose items carry no key bits (r = 0) matches every item through
// the same instructions. An empty bucket's staged item is masked the same
// way, its id to 0 — so words holds at least one word. The bounds and the
// header are copied to locals first, so that the loop's stores do not make
// it reload them. perfmodel calibrates its Q2 constants by calling this
// same function, so the model prices the loop the engine runs.
func ProbeMark(tables []Table, pairs []lshhash.Pair, sketch []uint32, half uint, lo, hi, first []uint32, words []uint64) int {
	lo, hi = stageBuckets(tables, pairs, sketch, half, lo, hi)
	first = first[:len(tables)]
	for l := range tables {
		items := tables[l].items
		base, mask := items.span(uint(hi[l]))
		first[l] = load(base, uint(lo[l])*items.width, mask)
	}
	collisions := 0
	for l := range tables {
		items, from, to := tables[l].items, lo[l], hi[l]
		mul, want := tables[l].keyMatch(pairs[l].Key(sketch, half))
		some := 1 - uint32(matches(from, to)) // the bucket has a first item
		item := uint64(first[l]) * mul
		id, hit := uint32(item>>32)&-some, matches(uint32(item), want)&uint64(some)
		words[id>>6] |= hit << (id & 63)
		n := hit
		base, mask := items.span(uint(to))
		for i := from + some; i < to; i++ {
			item := uint64(load(base, uint(i)*items.width, mask)) * mul
			id, hit := uint32(item>>32), matches(uint32(item), want)
			words[id>>6] |= hit << (id & 63)
			n += hit
		}
		collisions += int(n)
	}
	return collisions
}

// matches is 1 when a equals b and 0 otherwise, as a value: it compiles to
// a compare and a set, no branch.
func matches(a, b uint32) uint64 {
	var m uint64
	if a == b {
		m = 1
	}
	return m
}

// Verify is Steps Q3+Q4 over one candidate list: it computes the distance
// from the query scattered into mask (§5.2.3) to document base+id for each
// id of cand, in order, and appends those within the cosine threshold thr to
// dst. It returns the extended slice and the number of distances computed.
// Tombstoned candidates (deleted may be nil) are skipped for free and not
// counted. The static engine verifies its own candidates with it and the
// node verifies each delta segment's.
func Verify(dst []Neighbor, cand []uint32, base uint32, store sparse.Store, deleted *bitvec.Vector, thr float64, mask *sparse.QueryMask) ([]Neighbor, int) {
	evaluated := 0
	for _, id := range cand {
		id += base
		if deleted != nil && deleted.TestAtomic(int(id)) {
			continue
		}
		evaluated++
		idx, val := store.Doc(int(id))
		if dot := mask.Dot(idx, val); dot >= thr {
			dst = append(dst, Neighbor{ID: id, Dist: sparse.AngularDistance(dot)})
		}
	}
	return dst, evaluated
}
