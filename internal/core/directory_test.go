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

// getBits reads the value of width bits at bit of the packed bytes buf.
func getBits(buf []byte, bit, width uint) uint32 {
	var v uint32
	for i := range width {
		at := bit + i
		v |= uint32(buf[at>>3]>>(at&7)&1) << i
	}
	return v
}

// setBits writes the low width bits of v at bit of the packed bytes buf.
func setBits(buf []byte, bit, width uint, v uint32) {
	for i := range width {
		at := bit + i
		buf[at>>3] = buf[at>>3]&^(1<<(at&7)) | byte(v>>i&1)<<(at&7)
	}
}

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
// as counted from the keys, in the table a build makes and in the one
// DecodeTable makes of its encoding; the table validates; and the offsets
// are as wide as the widest block's span needs.
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
		built := tb.GroupByKey(c.keys, c.k, make([]uint32, 1<<c.k))
		r := uint(c.k - DirectoryBits(len(c.keys), c.k))
		lo, hi := refBounds(c.keys, c.k, r)
		widest := uint32(0)
		for blk := 0; blk < len(lo); blk += 64 {
			widest = max(widest, hi[min(blk+63, len(hi)-1)]-lo[blk])
		}
		if len(c.keys) > 0 && strings.HasPrefix(c.name, "one bucket") && widest != uint32(len(c.keys)) {
			t.Fatalf("%s: fixture's widest block spans %d", c.name, widest)
		}
		for what, tab := range packedAndDecoded(t, c.name, built) {
			p := lshhash.Params{Dim: 1, K: c.k, M: 2}
			if err := ValidateTables(p, len(c.keys), []Table{tab}); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if want := uint(bits.Len32(widest)); tab.dir.width != want {
				t.Fatalf("%s: offsets of %d bits, the widest block's span %d takes %d", what, tab.dir.width, widest, want)
			}
			if want := uint32(len(lo)+63) / 64; tab.nBlocks != want {
				t.Fatalf("%s: %d blocks over %d buckets", what, tab.nBlocks, len(lo))
			}
			for key := range uint32(1 << c.k) {
				d := key >> r
				if l, h := tab.bounds(key); l != lo[d] || h != hi[d] {
					t.Fatalf("%s: key %d bounds [%d, %d), want [%d, %d)", what, key, l, h, lo[d], hi[d])
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
					t.Fatalf("%s: Bucket(%d) = %v, the items in its bounds %v", what, key, got, want)
				}
			}
		}
	}
}

// TestValidateTablesNamesDirectoryFaults: each way a directory block can
// disagree with its neighbours or its bytes — an offset below the one
// before it, a closing offset that is not the next block's base, a last
// block that does not close at the item count, and an offset width the
// bytes cannot hold — is a *TableError naming the table and the fault,
// never a panic, edited into the bits of a table that validates.
func TestValidateTablesNamesDirectoryFaults(t *testing.T) {
	const k, n = 16, 4000 // 10 key bits: 16 blocks
	p := lshhash.Params{Dim: 1, K: k, M: 2}
	src := rng.New(9)
	keys := make([]uint32, n)
	for i := range keys {
		keys[i] = src.Uint32() & (1<<k - 1)
	}
	var tb TableBuilder
	good := tb.GroupByKey(keys, k, make([]uint32, 1<<k))
	if err := ValidateTables(p, n, []Table{good}); err != nil {
		t.Fatal(err)
	}
	w := good.dir.width
	offset := func(blk, j uint) uint { return blk*blockBits(w) + 32 + j*w }
	// A block whose last bucket holds items: its closing offset less one is
	// still no less than the offset before it.
	full := uint(0)
	for getBits(good.dir.buf, offset(full, 64), w) == getBits(good.dir.buf, offset(full, 63), w) {
		full++
	}
	last := uint(good.nBlocks) - 1
	for _, c := range []struct {
		name, reason string
		edit         func(tb *Table)
	}{
		{"a decreasing offset", "offsets decrease", func(tb *Table) {
			setBits(tb.dir.buf, offset(5, 1), w, 1<<w-1)
		}},
		{"a closing offset short of the next block's base", "does not start where the one before it closes", func(tb *Table) {
			setBits(tb.dir.buf, offset(full, 64), w, getBits(tb.dir.buf, offset(full, 64), w)-1)
		}},
		{"a last block closing short of the item count", "does not close at the item count", func(tb *Table) {
			at := offset(last, 64)
			for getBits(tb.dir.buf, at, w) == getBits(tb.dir.buf, at-w, w) {
				at -= w // the last non-empty bucket's end, and every empty one's after it
				setBits(tb.dir.buf, at+w, w, getBits(tb.dir.buf, at+w, w)-1)
			}
			setBits(tb.dir.buf, at, w, getBits(tb.dir.buf, at, w)-1)
		}},
		{"a width the bytes cannot hold", "directory bytes do not hold", func(tb *Table) { tb.dir.width++ }},
	} {
		tab := good
		tab.dir.buf = append([]byte(nil), good.dir.buf...)
		c.edit(&tab)
		err := ValidateTables(p, n, []Table{tab})
		var te *TableError
		if !errors.As(err, &te) || te.Table != 0 || !strings.Contains(te.Reason, c.reason) {
			t.Errorf("%s: err = %v, want a *TableError for table 0: %q", c.name, err, c.reason)
		}
	}
}
