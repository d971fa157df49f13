package core

import (
	"math"
	"math/bits"
	"slices"

	"plsh/internal/lshhash"
	"plsh/internal/sched"
)

// Merge returns the index over old's documents followed by the rows add
// sketches — the streaming merge of §6.2 as a copy, not a rebuild. No row is
// hashed: add's tables are bucketed from its sketches (as BuildFromSketches
// buckets them), at the directory bits of the merged index, each handed to
// the merge flat as it is bucketed and never packed, and old already
// holds its items grouped by key behind its directory, so the bucket of a
// key is old's items, then add's with old.Len()
// added to every id, without the ids whose bit is set in dead. Bucket(key)
// is, for every key, what Build over the concatenated rows would hold with
// the ids set in dead removed (the test files' Compact, the reference Merge
// is checked against). A Merge of no rows is that removal alone.
//
// The merged index indexes b = max(DirectoryBits(n), old's b) key bits over
// its n rows: b never shrinks, so a merge whose rows stay under the next
// power of two builds add at old's b and copies old as it is, and one that
// crosses it first refines old's tables to the new b, one stable counting
// pass each (refine) — at most once per power of two of the rows, and never
// once b = K.
//
// Between two directory buckets add occupies, old's buckets are adjacent in
// its item array and stay adjacent in the result, so they move as one
// block — one copy of the items, one constant added to their bucket starts
// (mergeTable). Only a tombstoned item splits a block.
//
// dead is a plain copy of the tombstone words, taken once by the caller and
// covering every id of both sides. A table's item array is sized by a count
// of its live items and then filled; the count and the fill must see the
// same tombstones, and against the live bitmap a Delete landing between them
// would leave the array a slot short. A tombstone newer than the copy is
// the query path's to filter, as it is for any published index.
//
// The sign-bit column is old's followed by add's, in a new array, with the
// entry of every row dead drops zeroed: every row the merged tables hold
// keeps its sketch, and no other row has one.
//
// The inputs are read, never written: old stays published while the merge
// runs.
func Merge(old *Static, add *lshhash.Sketches, dead []uint64, workers int) *Static {
	p := old.fam.Params()
	k := p.K
	n := old.n + add.N()
	r := min(uint(k-DirectoryBits(n, k)), old.tables[0].r)
	st := &Static{fam: old.fam, n: n, tables: make([]Table, len(old.tables)), signs: mergeSigns(p, old.signs, add.Data, dead, n)}
	pool := sched.NewPool(workers)
	scratch := make([]mergeScratch, pool.Workers())
	buildShared(p, add, r, pool, new(BuildTimings), func(l, w int, t flatTable) {
		st.tables[l] = mergeTable(&old.tables[l], t, uint32(old.n), k, r, dead, &scratch[w])
	})
	return st
}

// mergeSigns returns the column of old's rows then add's, n in all, with
// every row dead holds a zero entry.
func mergeSigns(p lshhash.Params, old, add []uint64, dead []uint64, n int) []uint64 {
	words := p.SketchWords()
	signs := append(append(make([]uint64, 0, n*words), old...), add...)
	for w, word := range dead {
		for ; word != 0; word &= word - 1 {
			if id := w<<6 + bits.TrailingZeros64(word); id < n {
				clear(signs[id*words : (id+1)*words])
			}
		}
	}
	return signs
}

// mergeScratch is what one worker keeps from table to table: where the
// tombstoned items of old sit, and old's and the result's bucket starts and
// items as plain 32-bit words — the merge shifts and copies them by the
// block, which packed arrays do not allow, so it reads old's through one
// unpacking pass and packs the result's once they are final — add's
// occupied buckets, and what refine splits old's buckets with.
type mergeScratch struct {
	deadAt              []uint32
	oldStarts, oldItems []uint32
	addOcc              []uint64
	starts, items       []uint32

	keys, hist, fineItems []uint32
	tb                    TableBuilder
}

// flatTable is a table's bucket starts, the end of the last bucket
// included, and its items, unpacked to 32 bits: the form the merge's block
// moves read and write.
type flatTable struct {
	starts, items []uint32
}

func isDead(dead []uint64, id uint32) bool { return dead[id>>6]>>(id&63)&1 != 0 }

// mergeTable merges one table under k-bit keys, its items carrying r of
// them: add's — flat, as buildShared hands them over — do already, and
// old's are refined to r first if they carry more. Both then have the same
// buckets, and so does the result.
func mergeTable(old *Table, add flatTable, shift uint32, k int, r uint, dead []uint64, scratch *mergeScratch) Table {
	from := flatTable{starts: old.appendStarts(scratch.oldStarts[:0]), items: old.AppendItems(scratch.oldItems[:0])}
	scratch.oldStarts, scratch.oldItems = from.starts, from.items
	if old.r != r {
		from = refine(from, k, old.r, r, scratch)
	}
	addStarts, addItems := add.starts, add.items
	shift <<= r // added to an item, the shift moves its id
	// An item's id is the high word of the item times mul, as in
	// Table.keyMatch: a multiply, where a shift by r would take CL from the
	// shifts isDead makes.
	mul := uint64(1) << (32 - r)

	// Where old's tombstoned items sit, in order, closed by a sentinel no
	// position reaches; and how many items of both sides are live.
	deadAt := scratch.deadAt[:0]
	for pos, item := range from.items {
		if isDead(dead, uint32(uint64(item)*mul>>32)) {
			deadAt = append(deadAt, uint32(pos))
		}
	}
	live := len(from.items) - len(deadAt) + len(addItems)
	deadAt = append(deadAt, math.MaxUint32)
	for _, item := range addItems {
		if isDead(dead, uint32(uint64(item+shift)*mul>>32)) {
			live--
		}
	}

	// The buckets add holds items in, one bit each, set without a branch.
	buckets := len(from.starts) - 1
	occ := slices.Grow(scratch.addOcc[:0], (buckets+63)/64)[:(buckets+63)/64]
	clear(occ)
	for d := range buckets {
		occ[d>>6] |= uint64(b2i(addStarts[d+1] > addStarts[d])) << (d & 63)
	}
	// Every start and every item is written below.
	to := flatTable{
		starts: slices.Grow(scratch.starts[:0], buckets+1)[:buckets+1],
		items:  slices.Grow(scratch.items[:0], live)[:live],
	}

	var c mergeCursor
	nextDead := deadAt // consumed from the front
	aPos := uint32(0)
	for w, aw := range occ {
		for ; aw != 0; aw &= aw - 1 {
			// The next directory bucket add occupies. Everything old holds up
			// to and including that bucket moves as a block; add's items
			// follow old's in the bucket.
			d := uint32(w<<6 + bits.TrailingZeros64(aw))
			if nextDead[0] < from.starts[d+1] {
				c, nextDead = moveOldAroundDead(&to, &from, c, d+1, nextDead)
			}
			c = moveOld(&to, &from, c, d+1)
			for end := addStarts[d+1]; aPos < end; aPos++ {
				if item := addItems[aPos] + shift; !isDead(dead, uint32(uint64(item)*mul>>32)) {
					to.items[c.n] = item
					c.n++
				}
			}
		}
	}
	if nextDead[0] < from.starts[buckets] {
		c, _ = moveOldAroundDead(&to, &from, c, uint32(buckets), nextDead)
	}
	c = moveOld(&to, &from, c, uint32(buckets))
	to.starts[buckets] = c.n
	scratch.deadAt, scratch.addOcc = deadAt, occ
	scratch.starts, scratch.items = to.starts, to.items
	return TableFromWords(to.starts, to.items, r)
}

// mergeCursor is how far one table's merge has come: the next bucket whose
// start is not yet written, and old's next item and the result's.
type mergeCursor struct {
	b, oPos, n uint32
}

// moveOld moves old's buckets below upTo that have not moved yet, and their
// items, to t — none of them tombstoned: the items are one copy, and every
// bucket's start shifts by how far the block moved.
//
// A block is a few buckets and a few items far more often than not, and a
// loop of so few iterations, or a memmove of so few bytes, costs a
// mispredicted branch each time. So a short block moves as a fixed 4
// starts and 8 items wherever both arrays have that much room: the result
// is written front to back, and what lands past the block's own length is
// overwritten by whatever comes next.
func moveOld(t, old *flatTable, c mergeCursor, upTo uint32) mergeCursor {
	shift := c.n - c.oPos // may wrap; so does the sum below
	count, end := upTo-c.b, old.starts[upTo]
	if src, dst := old.starts[c.b:], t.starts[c.b:]; count <= 4 && len(src) >= 4 && len(dst) >= 4 {
		s, d := (*[4]uint32)(src), (*[4]uint32)(dst)
		d[0], d[1], d[2], d[3] = s[0]+shift, s[1]+shift, s[2]+shift, s[3]+shift
	} else {
		for i, start := range src[:count] {
			dst[i] = start + shift
		}
	}
	if src, dst := old.items[c.oPos:], t.items[c.n:]; end-c.oPos <= 8 && len(src) >= 8 && len(dst) >= 8 {
		s, d := (*[8]uint32)(src), (*[8]uint32)(dst)
		d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]
	} else {
		copy(dst, src[:end-c.oPos])
	}
	c.n += end - c.oPos
	c.b, c.oPos = upTo, end
	return c
}

// moveOldAroundDead is moveOld for a block that holds tombstoned items, the
// positions at the front of deadAt: it moves the block up to the last of
// them, dropping each, and leaves the clean rest to moveOld. The buckets
// that start at or before a dropped item keep the shift of the items before
// it.
func moveOldAroundDead(t, old *flatTable, c mergeCursor, upTo uint32, deadAt []uint32) (mergeCursor, []uint32) {
	for end := old.starts[upTo]; deadAt[0] < end; deadAt = deadAt[1:] {
		at := deadAt[0]
		shift := c.n - c.oPos
		for c.b < upTo && old.starts[c.b] <= at {
			t.starts[c.b] = old.starts[c.b] + shift
			c.b++
		}
		c.n += uint32(copy(t.items[c.n:], old.items[c.oPos:at]))
		c.oPos = at + 1
	}
	return c, deadAt
}

// refine returns the buckets and the items of from — a table whose items
// carry rOld key bits — at r < rOld under k-bit keys, by one stable
// counting pass over the items, keyed by the directory bucket each falls in
// at r: its old bucket's bits, then the top rOld − r of the key bits it
// carries. Each old bucket splits into adjacent new ones in key order, so
// the result is what a build at r would hold for the same items. Nothing in
// it branches on an item or a bucket length: an item's old bucket is a
// running sum over the items of how many buckets end where it lies. A
// merge calls it only when its b grows.
func refine(from flatTable, k int, rOld, r uint, s *mergeScratch) flatTable {
	split := rOld - r
	lowOld, low := uint32(1)<<rOld-1, uint32(1)<<r-1
	n := len(from.items)
	keys := slices.Grow(s.keys[:0], n+1)[:n+1]
	clear(keys)
	// Bucket d ends where d+1 starts: an item at p lies in the bucket that
	// as many buckets end at or before p as its index.
	for _, end := range from.starts[1:] {
		keys[end]++
	}
	var d uint32
	for p, item := range from.items {
		d += keys[p]
		keys[p] = d<<split | item&lowOld>>r
	}
	keys = keys[:n]
	buckets := 1 << (uint(k) - r)
	hist := slices.Grow(s.hist[:0], buckets)[:buckets]
	clear(hist)
	for _, key := range keys {
		hist[key]++
	}
	s.tb.Reset(buckets, r)
	s.tb.Add(hist)
	items := slices.Grow(s.fineItems[:0], n)[:n]
	for p, key := range keys {
		item := from.items[p]
		items[hist[key]] = item>>rOld<<r | item&low
		hist[key]++
	}
	s.keys, s.hist, s.fineItems = keys, hist, items
	return flatTable{starts: s.tb.seal(), items: items}
}
