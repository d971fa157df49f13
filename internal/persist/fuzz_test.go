package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/bits"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"plsh/internal/core"
	"plsh/internal/lshhash"
	"plsh/internal/sparse"
)

// The committed fixtures are one 60-row node (Dim 256, K 6, M 4, two
// tombstones) saved twice: snapshot-v1.plsh by the last commit that wrote
// dense 2^k+1 offsets, snapshot-v2.plsh by reading that file back and
// writing it with this code.
func fixture(t testing.TB, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func decode(raw []byte) (*Snapshot, error) {
	return readSnapshot(bytes.NewReader(raw), int64(len(raw)))
}

// TestReadsVersion1Fixture: a version-1 file loads as the tables a build
// over its arena produces, bucket for bucket, and writing it back out
// yields exactly the committed version-2 bytes — which pins the current
// format against accidental change.
func TestReadsVersion1Fixture(t *testing.T) {
	v1, err := decode(fixture(t, "snapshot-v1.plsh"))
	if err != nil {
		t.Fatal(err)
	}
	if v1.Rows != 60 || len(v1.Tables) != v1.Params.L() {
		t.Fatalf("fixture: %d rows, %d tables", v1.Rows, len(v1.Tables))
	}
	fam, err := lshhash.NewFamily(v1.Params)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.StaticFromTables(fam, v1.Rows, v1.Tables)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Build(fam, v1.Arena, core.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	want.Compact(func(id uint32) bool { return v1.Deleted[id>>6]>>(id&63)&1 == 1 }, 1)
	for l := 0; l < got.NumTables(); l++ {
		for key := 0; key < v1.Params.Buckets(); key++ {
			if g, w := got.Table(l).Bucket(nil, uint32(key)), want.Table(l).Bucket(nil, uint32(key)); !slices.Equal(g, w) {
				t.Fatalf("table %d bucket %d: loaded %v, rebuilt %v", l, key, g, w)
			}
		}
	}

	dir := t.TempDir()
	if err := WriteSnapshot(dir, v1); err != nil {
		t.Fatal(err)
	}
	rewritten, err := os.ReadFile(SnapshotPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rewritten, fixture(t, "snapshot-v2.plsh")) {
		t.Fatal("rewriting the version-1 fixture does not reproduce testdata/snapshot-v2.plsh: the on-disk format changed")
	}
}

// encode returns the bytes WriteSnapshot makes of s.
func encode(t testing.TB, s *Snapshot) []byte {
	t.Helper()
	dir := t.TempDir()
	if err := WriteSnapshot(dir, s); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(SnapshotPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// stormSnapshot is the smallest snapshot with a bucket of the given size:
// one document, one table of four buckets, the document listed items times
// in the first. The table's two entries take the bit length of items
// (core.Table): 8 bits at 255, 9 at 256, 16 at 2^16−1 and 17 at 2^16.
func stormSnapshot(t testing.TB, items int) *Snapshot {
	t.Helper()
	arena := sparse.NewMatrix(8, 1, 1)
	arena.AppendRow(sparse.Vector{Idx: []uint32{3}, Val: []float32{1}})
	table := core.Table{Occ: []uint64{1}, Rank: []uint32{0}}
	table.SetOffsets([]uint32{0, uint32(items)})
	table.SetItems(make([]uint32, items))
	return &Snapshot{
		Params:   lshhash.Params{Dim: 8, K: 2, M: 2, Seed: 1},
		Capacity: 1,
		Rows:     1,
		Arena:    arena,
		Tables:   []core.Table{table},
		Deleted:  []uint64{0},
	}
}

// badOffsets returns a 60-row snapshot after edit has had its way with the
// offsets of one table — which WriteSnapshot stores as it finds them.
func badOffsets(t testing.TB, edit func(offs []uint32)) *Snapshot {
	t.Helper()
	s := testSnapshot(t, 60)
	offs := s.Tables[1].AppendOffsets(nil)
	edit(offs)
	s.Tables[1].SetOffsets(offs)
	return s
}

// stormSizes are the bucket sizes of entryCorpus's valid snapshots: two
// pairs that straddle a step of the packed entries' width, a small one and
// one at 2^16.
var stormSizes = []int{255, 256, 1<<16 - 1, 1 << 16}

// entryCorpus is what the packed entries add to the decoder's inputs: a
// table on either side of two width steps, which must load, and offsets no
// table can have, which must not.
func entryCorpus(t testing.TB) (valid, corrupt [][]byte) {
	for _, items := range stormSizes {
		valid = append(valid, encode(t, stormSnapshot(t, items)))
	}
	corrupt = [][]byte{
		encode(t, badOffsets(t, func(offs []uint32) { offs[3], offs[4] = offs[4]+1, offs[3] })), // two out of order
		encode(t, badOffsets(t, func(offs []uint32) { offs[2] = offs[1] - 1<<20 })),             // wraps below 0: 32 bits wide
		encode(t, badOffsets(t, func(offs []uint32) { offs[len(offs)-1]++ })),                   // closes past the items
		encode(t, badOffsets(t, func(offs []uint32) { offs[len(offs)-1]-- })),                   // closes short of them
		encode(t, badOffsets(t, func(offs []uint32) { offs[len(offs)-1] += 1 << 16 })),          // and 2^16 past
	}
	return valid, corrupt
}

// TestEntryWidthsOnDisk: the file holds 32-bit offsets whichever width the
// table packs them in, so a table on either side of a width step loads,
// answers and goes back to disk as the same bytes; offsets that decrease or
// do not close at the items are ErrCorrupt, not a table.
func TestEntryWidthsOnDisk(t *testing.T) {
	valid, corrupt := entryCorpus(t)
	for i, raw := range valid {
		snap, err := decode(raw)
		if err != nil {
			t.Fatalf("valid snapshot %d: %v", i, err)
		}
		if got, want := len(snap.Tables[0].Bucket(nil, 0)), stormSizes[i]; got != want {
			t.Fatalf("valid snapshot %d: bucket 0 holds %d items, want %d", i, got, want)
		}
		if !bytes.Equal(encode(t, snap), raw) {
			t.Fatalf("valid snapshot %d: writing what was read changes the file", i)
		}
	}
	for i, raw := range corrupt {
		if _, err := decode(raw); !errors.Is(err, ErrCorrupt) {
			t.Errorf("corrupt snapshot %d: err = %v, want ErrCorrupt", i, err)
		}
	}
	// A real index round-trips byte for byte too, through packed entries.
	raw := encode(t, testSnapshot(t, 100))
	snap, err := decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, snap), raw) {
		t.Fatal("writing a snapshot that was read changes the file")
	}
}

// itemsAt returns where, in the version-2 snapshot raw, the items of table l
// start: past the header, the arena, and every earlier table's bitmap, rank
// words, offsets and items, each behind its length word.
func itemsAt(t testing.TB, raw []byte, l int) int {
	t.Helper()
	u64 := func(at int) int { return int(binary.LittleEndian.Uint64(raw[at:])) }
	at := 8 + 4 + 3*4 + 8 + 8 // magic, version, Dim/K/M, seed, capacity
	rows := u64(at)
	nnz := u64(at + 8)
	at += 8 + 8 + (rows+1)*4 + 2*nnz*4 // rows, nnz, offsets, columns, values
	if tables := int(binary.LittleEndian.Uint32(raw[at:])); l >= tables {
		t.Fatalf("snapshot has %d tables, no table %d", tables, l)
	}
	at += 4
	for ; ; l-- {
		words := u64(at)
		at += 8 + words*(8+4)
		at += 8 + u64(at)*4 // offsets
		if l == 0 {
			return at + 8
		}
		at += 8 + u64(at)*4 // items
	}
}

// wrappingSnapshot is the committed 60-row version-2 fixture with one item of
// table 1 set to 64 = 2^⌈log2 60⌉ and the checksum made good: an id the
// ⌈log2 60⌉ = 6 bits of a table over 60 rows would wrap to 0, in range.
func wrappingSnapshot(t testing.TB) []byte {
	raw := slices.Clone(fixture(t, "snapshot-v2.plsh"))
	at := itemsAt(t, raw, 1) + 5*4
	binary.LittleEndian.PutUint32(raw[at:], 1<<bits.Len(60-1))
	return withChecksum(raw)
}

// TestReaderWidensItems: the reader packs the ids a snapshot holds in the
// bits the largest of them needs, not in the bits its row count needs, so an
// id at or past the row count reaches ValidateTables as it is and the file is
// ErrCorrupt — never a table that wrapped it into range and loads.
func TestReaderWidensItems(t *testing.T) {
	if _, err := decode(fixture(t, "snapshot-v2.plsh")); err != nil {
		t.Fatalf("fixture: %v", err)
	}
	_, err := decode(wrappingSnapshot(t))
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "item id out of range") {
		t.Fatalf("a snapshot holding item 64 of 60 rows: err = %v, want ErrCorrupt from ValidateTables", err)
	}
}

// withChecksum returns raw with its last four bytes replaced by the CRC of
// the rest, so a mutated body gets past the trailer check and into the
// section decoder.
func withChecksum(raw []byte) []byte {
	if len(raw) < 4 {
		return raw
	}
	out := slices.Clone(raw)
	body := out[:len(out)-4]
	binary.LittleEndian.PutUint32(out[len(body):], crc32.Checksum(body, castagnoli))
	return out
}

// FuzzReadSnapshot: whatever the bytes, decoding ends in an ErrCorrupt
// error or in a snapshot core.StaticFromTables accepts and every bucket of
// which can be read; it never panics, and it allocates in proportion to the
// input, not to the lengths the input claims. Each input is tried as given
// and with a corrected checksum.
func FuzzReadSnapshot(f *testing.F) {
	for _, name := range []string{"snapshot-v1.plsh", "snapshot-v2.plsh"} {
		raw := fixture(f, name)
		f.Add(raw)
		for _, cut := range []int{0, 1, 7, 8, len(raw) / 2, len(raw) - 1} {
			f.Add(raw[:cut])
		}
	}
	valid, corrupt := entryCorpus(f)
	for _, raw := range slices.Concat(valid, corrupt) {
		f.Add(raw)
	}
	f.Add(wrappingSnapshot(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, raw := range [][]byte{data, withChecksum(data)} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			snap, err := decode(raw)
			runtime.ReadMemStats(&after)
			// 16 bytes a byte covers the widest sections (a table's three
			// length words becoming a 128-byte core.Table; a 4-byte offset
			// or item kept, packed into at most 4 more and, for an offset,
			// unpacked again for validation) twice over;
			// the constant is the runtime's own background allocation.
			if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+16*len(raw)); got > limit {
				t.Fatalf("decoding %d bytes allocated %d, over %d", len(raw), got, limit)
			}
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("error does not wrap ErrCorrupt: %v", err)
				}
				continue
			}
			if snap.Arena.Rows() != snap.Rows {
				t.Fatalf("accepted %d rows over a %d-row arena", snap.Rows, snap.Arena.Rows())
			}
			if len(snap.Tables) == 0 {
				continue
			}
			// StaticFromTables wants the family; only its parameters
			// matter to the shape checks, and drawing the hyperplanes of a
			// fuzzed Dim is not this target's business.
			if err := core.ValidateTables(snap.Params, snap.Rows, snap.Tables); err != nil {
				t.Fatalf("accepted tables that do not validate: %v", err)
			}
			for l := range snap.Tables {
				for key := 0; key < snap.Params.Buckets(); key++ {
					for _, id := range snap.Tables[l].Bucket(nil, uint32(key)) {
						if int(id) >= snap.Rows {
							t.Fatalf("table %d bucket %d holds id %d of %d rows", l, key, id, snap.Rows)
						}
					}
				}
			}
		}
	})
}
