// Package bitvec implements the dense bitvectors at the heart of PLSH's
// query path.
//
// The paper (§5.2.1) eliminates duplicate candidates across the L hash-table
// bucket lists with a histogram over data indexes 0..N−1, stored as a
// bitvector: marking and testing a candidate is O(1) with a small constant,
// beating both sorting (O(Q log Q)) and tree sets. The same representation
// serves three more roles: the scan-and-extract pass that produces a sorted
// unique candidate array for prefetch-friendly access (§5.2.2), the deletion
// set consulted before final filtering (§6.2), and the query-side vocabulary
// mask used for O(1) membership checks in the sparse dot product (§5.2.3).
package bitvec

import (
	"math/bits"
	"sync/atomic"
)

// Vector is a fixed-capacity dense bitvector over [0, Len()).
type Vector struct {
	words []uint64
	n     int
}

// New returns a zeroed Vector with capacity for n bits.
func New(n int) *Vector {
	if n < 0 {
		panic("bitvec: negative length")
	}
	return &Vector{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the bit capacity.
func (v *Vector) Len() int { return v.n }

// Set sets bit i.
func (v *Vector) Set(i int) { v.words[i>>6] |= 1 << (uint(i) & 63) }

// Test reports whether bit i is set.
func (v *Vector) Test(i int) bool { return v.words[i>>6]&(1<<(uint(i)&63)) != 0 }

// TestAndSet sets bit i and reports whether it was previously clear.
// This is the single-pass "check histogram, write if zero" step of §5.2.1.
func (v *Vector) TestAndSet(i int) bool {
	w := i >> 6
	mask := uint64(1) << (uint(i) & 63)
	old := v.words[w]
	v.words[w] = old | mask
	return old&mask == 0
}

// SetAtomic sets bit i with a release-ordered atomic OR, so it is safe to
// call concurrently with TestAtomic on any bit — including bits in the same
// word. This is the deletion-tombstone write path under the node's snapshot
// concurrency model: queries read tombstones lock-free while deletions land.
//
// A vector must be accessed either entirely atomically or entirely plainly;
// mixing Set with TestAtomic on the same vector is a data race.
func (v *Vector) SetAtomic(i int) {
	atomic.OrUint64(&v.words[i>>6], 1<<(uint(i)&63))
}

// TestAtomic reports whether bit i is set, using an atomic load so it can
// run concurrently with SetAtomic.
func (v *Vector) TestAtomic(i int) bool {
	return atomic.LoadUint64(&v.words[i>>6])&(1<<(uint(i)&63)) != 0
}

// CountAtomic returns the number of set bits using atomic word loads. With
// concurrent SetAtomic calls in flight the result is a lower bound on the
// final population (bits are only ever set, never cleared, between resets).
func (v *Vector) CountAtomic() int {
	c := 0
	for i := range v.words {
		c += bits.OnesCount64(atomic.LoadUint64(&v.words[i]))
	}
	return c
}

// Reset zeroes the whole vector. For vectors sized to N this is the paper's
// between-query wipe; cost is O(N/64) but the vector stays cache-resident.
func (v *Vector) Reset() {
	for i := range v.words {
		v.words[i] = 0
	}
}

// ResetList clears exactly the given bits. When the set population is far
// below N this is much cheaper than Reset; PLSH uses it to recycle a
// worker's candidate bitvector using the extracted candidate array.
func (v *Vector) ResetList(idx []uint32) {
	for _, i := range idx {
		v.words[i>>6] &^= 1 << (uint64(i) & 63)
	}
}

// Count returns the number of set bits.
func (v *Vector) Count() int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// AppendSet appends the indexes of all set bits, in increasing order, to dst
// and returns the extended slice. This is the §5.2.2 scan that converts the
// unpredictable bitvector into a sorted dense array whose sequential access
// pattern the hardware prefetcher (or, portably, the cache) can exploit.
func (v *Vector) AppendSet(dst []uint32) []uint32 {
	for wi, w := range v.words {
		base := uint32(wi << 6)
		for w != 0 {
			dst = append(dst, base+uint32(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return dst
}

// Words exposes the backing words (read-only use intended); needed by
// snapshot/restore and by tests asserting layout properties.
func (v *Vector) Words() []uint64 { return v.words }

// Grow returns a vector with capacity at least n bits, preserving contents.
// If the receiver already suffices it is returned unchanged. Delta tables
// grow as streaming inserts arrive, and their deletion vectors grow with
// them.
func (v *Vector) Grow(n int) *Vector {
	if n <= v.n {
		return v
	}
	need := (n + 63) / 64
	if need <= cap(v.words) {
		v.words = v.words[:need]
	} else {
		w := make([]uint64, need, need+need/2)
		copy(w, v.words)
		v.words = w
	}
	v.n = n
	return v
}
