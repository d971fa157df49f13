package core

import (
	"math"
	"math/bits"
	"slices"

	"plsh/internal/sched"
)

// Merge returns the index over old's documents followed by add's — the
// streaming merge of §6.2 as a copy, not a rebuild. Both sides already hold
// their items grouped by key behind a directory of the occupied buckets, so
// no row is hashed and nothing is sorted: the bucket of a key is old's
// items, then add's with old.Len() added to every id, without the ids whose
// bit is set in dead. Bucket(key) is, for every key, what Build over the
// concatenated rows would hold with the ids set in dead removed (the test
// files' Compact, the reference Merge is checked against). A Merge against
// an add of no rows is that removal alone.
//
// The bookkeeping is proportional to add's buckets, not old's: between two
// keys add occupies, old's buckets are adjacent in its item array and stay
// adjacent in the result, so they move as one block — one copy of the items,
// one constant added to their directory entries (mergeTable). Only a
// tombstoned item splits a block.
//
// dead is a plain copy of the tombstone words, taken once by the caller and
// covering every id of both sides. A table's item array is sized by a count
// of its live items and then filled; the count and the fill must see the
// same tombstones, and against the live bitmap a Delete landing between them
// would leave the array a slot short. A tombstone newer than the copy is
// the query path's to filter, as it is for any published index.
//
// The inputs are read, never written: old stays published while the merge
// runs.
func Merge(old, add *Static, dead []uint64, workers int) *Static {
	st := &Static{fam: old.fam, n: old.n + add.n, tables: make([]Table, len(old.tables))}
	pool := sched.NewPool(workers)
	scratch := make([]mergeScratch, pool.Workers())
	pool.Run(len(st.tables), func(l, w int) {
		st.tables[l] = mergeTable(&old.tables[l], &add.tables[l], uint32(old.n), dead, &scratch[w])
	})
	return st
}

// mergeScratch is what one worker keeps from table to table: where the
// tombstoned items of old sit, and old's, add's and the result's entries and
// items as plain 32-bit words — the merge shifts and copies them by the
// block, which packed arrays do not allow, so it reads the inputs through
// one unpacking pass each and packs the result's once they are final.
type mergeScratch struct {
	deadAt            []uint32
	oldOffs, oldItems []uint32
	addItems          []uint32
	offs, items       []uint32
}

// flatTable is a table's entries and items unpacked to 32 bits, the form
// the merge's block moves read and write.
type flatTable struct {
	offs, items []uint32
}

func isDead(dead []uint64, id uint32) bool { return dead[id>>6]>>(id&63)&1 != 0 }

// mergeTable merges one table.
//
// The result's directory has an entry for every bucket either side has one
// for: a bucket the tombstones emptied keeps its entry, of zero length.
func mergeTable(old, add *Table, shift uint32, dead []uint64, scratch *mergeScratch) Table {
	from := flatTable{offs: old.appendOffsets(scratch.oldOffs[:0]), items: old.AppendItems(scratch.oldItems[:0])}
	addItems := add.AppendItems(scratch.addItems[:0])

	// Where old's tombstoned items sit, in order, closed by a sentinel no
	// position reaches; and how many items of both sides are live.
	deadAt := scratch.deadAt[:0]
	for pos, id := range from.items {
		if isDead(dead, id) {
			deadAt = append(deadAt, uint32(pos))
		}
	}
	live := len(from.items) - len(deadAt) + len(addItems)
	deadAt = append(deadAt, math.MaxUint32)
	for _, id := range addItems {
		if isDead(dead, id+shift) {
			live--
		}
	}

	occ := make([]uint64, len(old.occ))
	var entries uint32
	for w, ow := range old.occ {
		occ[w] = ow | add.occ[w]
		entries += uint32(bits.OnesCount64(occ[w]))
	}
	// Every entry and every item is written below.
	to := flatTable{
		offs:  slices.Grow(scratch.offs[:0], int(entries)+1)[:entries+1],
		items: slices.Grow(scratch.items[:0], live)[:live],
	}

	var c mergeCursor
	nextDead := deadAt // consumed from the front
	aEnt, aPos := uint32(0), uint32(0)
	for w, aw := range add.occ {
		ow := old.occ[w]
		for ; aw != 0; aw &= aw - 1 {
			// The next key add occupies. Everything old holds up to and
			// including that key moves as a block; add's items follow old's
			// in the key's bucket.
			bit := uint(bits.TrailingZeros64(aw))
			has := uint32(ow>>bit) & 1 // old has the key too
			upTo := old.rank[w] + uint32(bits.OnesCount64(ow&(1<<bit-1))) + has
			if nextDead[0] < from.offs[upTo] {
				c, nextDead = moveOldAroundDead(&to, &from, c, upTo, nextDead)
			}
			c = moveOld(&to, &from, c, upTo)
			// If old has the key, its entry — just moved — serves the merged
			// bucket; if not, the bucket starts a new entry here. The entry
			// is written either way and kept only in the second case: which
			// case it is is a coin toss no branch predictor calls, and a
			// slot not kept is the next entry's to overwrite.
			to.offs[c.e] = c.n
			c.e += 1 - has
			aEnt++
			for end := add.start(aEnt); aPos < end; aPos++ {
				if id := addItems[aPos] + shift; !isDead(dead, id) {
					to.items[c.n] = id
					c.n++
				}
			}
		}
	}
	upTo := uint32(len(from.offs) - 1)
	if nextDead[0] < from.offs[upTo] {
		c, _ = moveOldAroundDead(&to, &from, c, upTo, nextDead)
	}
	c = moveOld(&to, &from, c, upTo)
	to.offs[c.e] = c.n
	scratch.deadAt, scratch.oldOffs, scratch.oldItems, scratch.addItems = deadAt, from.offs, from.items, addItems
	scratch.offs, scratch.items = to.offs, to.items
	return TableFromWords(occ, to.offs, to.items)
}

// mergeCursor is how far one table's merge has come: old's next directory
// entry and item, and the result's.
type mergeCursor struct {
	oEnt, oPos uint32
	e, n       uint32
}

// moveOld moves old's directory entries below upTo that have not moved yet,
// and their items, to t — none of them tombstoned: the items are one copy,
// and every entry shifts by how far the block moved.
//
// A block is a few entries and a few items far more often than not, and a
// loop of so few iterations, or a memmove of so few bytes, costs a
// mispredicted branch each time. So a short block moves as a fixed 4
// entries and 8 items wherever both arrays have that much room: the result
// is written front to back, and what lands past the block's own length is
// overwritten by whatever comes next.
func moveOld(t, old *flatTable, c mergeCursor, upTo uint32) mergeCursor {
	shift := c.n - c.oPos // may wrap; so does the sum below
	ents, end := upTo-c.oEnt, old.offs[upTo]
	if src, dst := old.offs[c.oEnt:], t.offs[c.e:]; ents <= 4 && len(src) >= 4 && len(dst) >= 4 {
		s, d := (*[4]uint32)(src), (*[4]uint32)(dst)
		d[0], d[1], d[2], d[3] = s[0]+shift, s[1]+shift, s[2]+shift, s[3]+shift
	} else {
		for i, off := range src[:ents] {
			dst[i] = off + shift
		}
	}
	if src, dst := old.items[c.oPos:], t.items[c.n:]; end-c.oPos <= 8 && len(src) >= 8 && len(dst) >= 8 {
		s, d := (*[8]uint32)(src), (*[8]uint32)(dst)
		d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]
	} else {
		copy(dst, src[:end-c.oPos])
	}
	c.n += end - c.oPos
	c.e += ents
	c.oEnt, c.oPos = upTo, end
	return c
}

// moveOldAroundDead is moveOld for a block that holds tombstoned items, the
// positions at the front of deadAt: it moves the block up to the last of
// them, dropping each, and leaves the clean rest to moveOld. The entries
// that start at or before a dropped item keep the shift of the items before
// it.
func moveOldAroundDead(t, old *flatTable, c mergeCursor, upTo uint32, deadAt []uint32) (mergeCursor, []uint32) {
	for end := old.offs[upTo]; deadAt[0] < end; deadAt = deadAt[1:] {
		at := deadAt[0]
		shift := c.n - c.oPos
		for c.oEnt < upTo && old.offs[c.oEnt] <= at {
			t.offs[c.e] = old.offs[c.oEnt] + shift
			c.oEnt++
			c.e++
		}
		c.n += uint32(copy(t.items[c.n:], old.items[c.oPos:at]))
		c.oPos = at + 1
	}
	return c, deadAt
}
