package core

import (
	"math/bits"
	"sync/atomic"

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
// keys from the sketch and loads the bounds of each selected bucket into lo
// and hi (length ≥ len(tables); returned cut to it), touching no item. A
// bucket's bounds are three loads from the one directory block its key
// selects — the block's base and two adjacent offsets, the same load, shift
// and mask as an item's (Table.bounds) — about a third of a byte a
// document, 10 KB a table at 32 000 documents under K=16, the part of the
// index a cache can hold. An empty bucket comes out as two equal bounds.
// The loop has no branch — bounds checks aside — so the L misses are all in
// flight together: the structural stand-in for §5.2.2's software prefetch.
// A probe that walked each bucket as soon as it had its bounds would close
// every iteration with a loop branch on a value still in flight from
// memory, and each misprediction of it serializes the next table's miss
// behind this one's.
func stageBuckets(tables []Table, pairs []lshhash.Pair, sketch []uint32, half uint, lo, hi []uint32) ([]uint32, []uint32) {
	pairs = pairs[:len(tables)]
	lo = lo[:len(tables)]
	hi = hi[:len(tables)]
	for l := range tables {
		lo[l], hi[l] = tables[l].bounds(pairs[l].Key(sketch, half))
	}
	return lo, hi
}

// ProbeMark is the Q2 probe: it marks every item of the L buckets
// the sketch selects into the dedup bitvector words and returns the
// collision count (bucket entries, duplicates included). After
// stageBuckets, a second staging loop loads the item at each bucket's start
// into first (length ≥ len(tables)) — the line every walk of the bucket
// begins with, and with two to four items a directory bucket the line that
// holds the rest of it more often than not; for an empty bucket it is
// whatever lies there, inside the array, which the walk masks — so those L
// misses overlap too.
// The walk then takes each directory bucket with trip counts already in
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

// Verify is Steps Q3+Q4 over one candidate list, in two stages. Stage 1
// reads each candidate's packed sketch — row id of signs, the column of the
// structure cand indexes — and keeps the live candidates within f.Bound bits
// of the query's (lshhash.HammingBound), compacting them in place at the
// front of cand. Stage 2 computes the distance from the query scattered into
// f.Mask (§5.2.3) to document base+id for each kept id, in order, and
// appends those within the cosine threshold f.Thr to dst. It returns the
// extended slice, the live candidates (those not tombstoned in deleted,
// which may be nil) and the distances computed. The static engine verifies
// its own candidates with it and the node verifies each delta segment's.
//
// Stage 1 has no branch on what it loads, in stageBuckets' idiom: it writes
// every id at the cursor and advances the cursor by whether the candidate
// passed, so the column's misses are all in flight together, and stage 2's
// loop runs over survivors only. (A check that branched inside the dot
// product loop cost a fifth more a query at 222 000 rows.)
func Verify(dst []Neighbor, cand []uint32, base uint32, signs []uint64, store sparse.Store, deleted *bitvec.Vector, f Filter) ([]Neighbor, int, int) {
	var dead []uint64
	if deleted != nil {
		dead = deleted.Words()
	}
	live, kept := checkSigns(cand, base, signs, dead, f.Signs, f.Bound)
	for _, id := range cand[:kept] {
		id += base
		idx, val := store.Doc(int(id))
		if dot := f.Mask.Dot(idx, val); dot >= f.Thr {
			dst = append(dst, Neighbor{ID: id, Dist: sparse.AngularDistance(dot)})
		}
	}
	return dst, live, kept
}

// checkSigns is Verify's stage 1: it moves the ids of cand that are live —
// not set in the tombstone words dead (none when nil), read atomically — and
// within bound bits of the query's packed sketch q to the front of cand, in
// order, and returns how many were live and how many it kept. It is a
// function of its own, apart from stage 2's calls into the store: written
// inline in Verify, the loop kept more of its values on the stack and read a
// tenth slower at 262 144 rows.
func checkSigns(cand []uint32, base uint32, signs, dead, q []uint64, bound int) (live, kept int) {
	words := len(q)
	for _, id := range cand {
		row := signs[int(id)*words:][:words]
		d := 0
		for j, w := range row {
			d += bits.OnesCount64(w ^ q[j])
		}
		alive := 1
		if dead != nil {
			g := id + base
			alive = 1 - int(atomic.LoadUint64(&dead[g>>6])>>(g&63)&1)
		}
		cand[kept] = id
		kept += alive & b2i(d <= bound)
		live += alive
	}
	return live, kept
}

// b2i is 1 for true and 0 for false, as a value: a compare and a set, no
// branch.
func b2i(b bool) int {
	var i int
	if b {
		i = 1
	}
	return i
}
