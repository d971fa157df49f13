package core

import (
	"errors"
	"fmt"
	"math/bits"
	"strings"
	"testing"

	"plsh/internal/lshhash"
	"plsh/internal/rng"
)

// directoryCase is a table of one key per item under k-bit keys, and where
// each of its directory buckets starts and ends, counted from the keys.
type directoryCase struct {
	name string
	k    int
	keys []uint32
}

// refBounds returns the bounds of every directory bucket of keys at r: a
// prefix sum over the per-bucket counts.
func refBounds(keys []uint32, k int, r uint) (lo, hi []uint32) {
	buckets := 1 << (uint(k) - r)
	lo, hi = make([]uint32, buckets), make([]uint32, buckets)
	for _, key := range keys {
		hi[key>>r]++
	}
	var cum uint32
	for d := range buckets {
		lo[d] = cum
		cum += hi[d]
		hi[d] = cum
	}
	return lo, hi
}

// TestDirectoryBoundsMatchReference: over hand-built key sets — an empty
// table, every item in one bucket, blocks with no items, N on both sides of
// a power of two and b held at K/2 — every key's bounds, read through the
// probe's bounds and through Bucket's, are its directory bucket's [lo, hi)
// as counted from the keys, in the table a build makes; the table
// validates; and the offsets are as wide as the widest block's span needs.
func TestDirectoryBoundsMatchReference(t *testing.T) {
	src := rng.New(7)
	random := func(n, k int) []uint32 {
		keys := make([]uint32, n)
		for i := range keys {
			keys[i] = src.Uint32() & (1<<k - 1)
		}
		return keys
	}
	same := func(n int, key uint32) []uint32 {
		keys := make([]uint32, n)
		for i := range keys {
			keys[i] = key
		}
		return keys
	}
	// 4 000 rows under K = 16 index 10 key bits, 16 blocks; only blocks 3
	// and 9 hold items.
	sparseBlocks := random(4000, 16)
	for i := range sparseBlocks {
		blk := uint32(3 + 6*(i%2))
		sparseBlocks[i] = blk<<12 | sparseBlocks[i]&(1<<12-1)
	}
	cases := []directoryCase{
		{"empty", 8, nil},
		{"empty at K=16", 16, nil},
		{"one bucket of 256", 8, same(256, 77)},
		{"one bucket of 300", 8, same(300, 200)},
		{"one bucket of 4096 at K=16", 16, same(4096, 0xbeef)},
		{"blocks 3 and 9 of 16", 16, sparseBlocks},
		{"b held at K/2", 16, random(10, 16)},
		{"b held at K/2, one block of 16 buckets", 8, random(20, 8)},
	}
	for _, n := range []int{1023, 1024, 1025, 4095, 4096, 4097} {
		cases = append(cases, directoryCase{fmt.Sprintf("N=%d", n), 16, random(n, 16)})
	}
	for _, c := range cases {
		var tb TableBuilder
		tab := tb.GroupByKey(c.keys, c.k, make([]uint32, 1<<c.k))
		r := uint(c.k - DirectoryBits(len(c.keys), c.k))
		lo, hi := refBounds(c.keys, c.k, r)
		widest := uint32(0)
		for blk := 0; blk < len(lo); blk += 64 {
			widest = max(widest, hi[min(blk+63, len(hi)-1)]-lo[blk])
		}
		if len(c.keys) > 0 && strings.HasPrefix(c.name, "one bucket") && widest != uint32(len(c.keys)) {
			t.Fatalf("%s: fixture's widest block spans %d", c.name, widest)
		}
		p := lshhash.Params{Dim: 1, K: c.k, M: 2}
		if err := validateTables(p, len(c.keys), []Table{tab}); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if want := uint(bits.Len32(widest)); tab.dir.width != want {
			t.Fatalf("%s: offsets of %d bits, the widest block's span %d takes %d", c.name, tab.dir.width, widest, want)
		}
		if want := uint32(len(lo)+63) / 64; tab.nBlocks != want {
			t.Fatalf("%s: %d blocks over %d buckets", c.name, tab.nBlocks, len(lo))
		}
		for key := range uint32(1 << c.k) {
			d := key >> r
			if l, h := tab.bounds(key); l != lo[d] || h != hi[d] {
				t.Fatalf("%s: key %d bounds [%d, %d), want [%d, %d)", c.name, key, l, h, lo[d], hi[d])
			}
		}
		for d := range lo {
			key := uint32(d) << r
			var want []uint32
			for i := lo[d]; i < hi[d]; i++ {
				if item := tab.items.at(i); item&(1<<r-1) == 0 {
					want = append(want, item>>r)
				}
			}
			if got := tab.Bucket(nil, key); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: Bucket(%d) = %v, the items in its bounds %v", c.name, key, got, want)
			}
		}
	}
}

// validateTables reports whether tables describe n documents under p's
// geometry: L = m(m−1)/2 tables, all indexing the same b key bits with
// K/2 ≤ b ≤ K, each with ⌈2^b/64⌉ directory blocks and each packed array as
// long as its count and width take, no width past 32; block by block, the
// first base 0 and each next one where the block before it closes, every
// block's offsets running up from 0, any buckets past 2^b empty, and the
// last block closing at the item count; and every item's id below n. Every
// way core writes a table — the builds, Merge, Compact — is held to it.
func validateTables(p lshhash.Params, n int, tables []Table) error {
	if len(tables) != p.L() {
		return fmt.Errorf("%d tables, want %d", len(tables), p.L())
	}
	r := tables[0].r
	if r > uint(p.K/2) {
		return errors.New("table 0: directory indexes fewer than K/2 key bits")
	}
	buckets := uint(1) << (uint(p.K) - r)
	blocks := (buckets + 63) / 64
	for l := range tables {
		t := &tables[l]
		bad := func(reason string) error { return fmt.Errorf("table %d: %s", l, reason) }
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
		var next uint64 // where the next block must start
		for at := uint(0); at < blocks*blockBits(w); at += blockBits(w) {
			base := uint64(getBits(t.dir.buf, at, 32))
			if base != next {
				return bad("a block does not start where the one before it closes")
			}
			off := getBits(t.dir.buf, at+32, w)
			if off != 0 {
				return bad("a block's first offset is not 0")
			}
			for j := uint(1); j <= 64; j++ {
				o := getBits(t.dir.buf, at+32+j*w, w)
				if o < off {
					return bad("offsets decrease")
				}
				if j > buckets && o != off {
					return bad("a bucket past 2^b holds items")
				}
				off = o
			}
			next = base + uint64(off)
		}
		if next != uint64(t.n) {
			return bad("the last block does not close at the item count")
		}
		for i := range t.n {
			if uint64(t.items.at(i)) >= uint64(n)<<r {
				return bad("item id out of range")
			}
		}
	}
	return nil
}

// getBits reads the value of width bits at bit of the packed bytes buf.
func getBits(buf []byte, bit, width uint) uint32 {
	var v uint32
	for i := range width {
		at := bit + i
		v |= uint32(buf[at>>3]>>(at&7)&1) << i
	}
	return v
}
