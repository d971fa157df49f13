package core

import (
	"encoding/binary"
	"testing"

	"plsh/internal/lshhash"
)

// FuzzDecodeTable: whatever the bytes, DecodeTable ends in an error or a
// table, and a table that ValidateTables accepts — as the one table of an
// index of rows documents under K = 4, 8 or 16 — is safe to probe: ProbeMark
// and Bucket over 256 keys read only inside its arrays, count the same
// collisions, and find the same ids, all below rows. The kernels read the
// directory and the items through unsafe behind one bounds check each, and r
// shifts every directory index, so validation is what keeps a table from
// disk inside its memory.
func FuzzDecodeTable(f *testing.F) {
	for _, k := range []int{4, 8, 16} {
		p := lshhash.Params{Dim: 64, K: k, M: 2, Seed: 5}
		fam, err := lshhash.NewFamily(p)
		if err != nil {
			f.Fatal(err)
		}
		for _, n := range []int{1, 1 << (k / 2), 3 << (k / 2), 1<<k + 1} {
			sk := layoutSketches(p, n, true, uint64(n))
			enc := BuildFromSketches(fam, sk, 1).tables[0].AppendEncoded(nil)
			f.Add(enc, uint32(n))
			f.Add(enc[:len(enc)/2], uint32(n))
			wide := append([]byte(nil), enc...)
			binary.LittleEndian.PutUint32(wide, 1<<32-1) // r past every K
			f.Add(wide, uint32(n))
		}
	}
	// Directories the builds above do not make: no items, and every item in
	// one bucket, whose block spans them all.
	var tb TableBuilder
	for _, keys := range [][]uint32{nil, make([]uint32, 300)} {
		t := tb.GroupByKey(keys, 8, make([]uint32, 256))
		f.Add(t.AppendEncoded(nil), uint32(len(keys)))
	}
	f.Fuzz(func(t *testing.T, enc []byte, rows uint32) {
		tb, err := DecodeTable(enc)
		if err != nil {
			return
		}
		n := int(rows % (1 << 20))
		tables := []Table{tb}
		for _, k := range []int{4, 8, 16} {
			p := lshhash.Params{Dim: 1, K: k, M: 2}
			if ValidateTables(p, n, tables) != nil {
				continue
			}
			half := uint(k / 2)
			pairs := lshhash.Pairs(p.M)
			lo, hi, first := make([]uint32, 1), make([]uint32, 1), make([]uint32, 1)
			words := make([]uint64, (max(n, 1)+63)/64) // at least one word: see ProbeMark
			for i := range uint32(256) {
				key := i * 0x9e37 & (1<<k - 1)
				sketch := []uint32{key >> half, key & (1<<half - 1)}
				collisions := ProbeMark(tables, pairs, sketch, half, lo, hi, first, words)
				ids := tb.Bucket(nil, key)
				if collisions != len(ids) {
					t.Fatalf("K=%d key %d: ProbeMark counts %d collisions, Bucket holds %d", k, key, collisions, len(ids))
				}
				for _, id := range ids {
					if int(id) >= n {
						t.Fatalf("K=%d key %d: Bucket holds id %d of %d rows", k, key, id, n)
					}
					if words[id>>6]>>(id&63)&1 == 0 {
						t.Fatalf("K=%d key %d: ProbeMark left id %d of the bucket unmarked", k, key, id)
					}
				}
				clear(words)
			}
		}
	})
}
