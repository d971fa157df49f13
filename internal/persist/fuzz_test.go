package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
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
// tombstones) saved four times: snapshot-v3.plsh by the last commit that
// wrote tables without the key bits their items carry, snapshot-v4.plsh by
// reading that file back and writing it as version 4, snapshot-v5.plsh by
// reading the version-4 file back and writing it as version 5, the
// directory in 64-bucket blocks, and snapshot-v6.plsh by opening the
// version-5 file in a node, which builds the tables over its arena under
// the family of one-byte coefficients, and saving it. Version 3 is no
// longer read; its file is the input the refusal test reads.
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

// loadFixture decodes the committed fixture name, which must be of the
// given version and hold the fixture node's 60 rows.
func loadFixture(t *testing.T, name string, version uint32) *Snapshot {
	t.Helper()
	raw := fixture(t, name)
	if v := binary.LittleEndian.Uint32(raw[8:]); v != version {
		t.Fatalf("%s is version %d", name, v)
	}
	snap, err := decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Rows != 60 || snap.Arena.Rows() != 60 {
		t.Fatalf("%s: %d rows over a %d-row arena", name, snap.Rows, snap.Arena.Rows())
	}
	return snap
}

// TestReadsVersion6Fixture: the committed version-6 file loads as a build
// over its arena does, bucket for bucket, tombstoned rows included (the
// node that wrote it built its tables on open and merged nothing since),
// and writing it back out yields exactly its own bytes — which pins the
// format against accidental change.
func TestReadsVersion6Fixture(t *testing.T) {
	snap := loadFixture(t, "snapshot-v6.plsh", 6)
	if len(snap.Tables) != snap.Params.L() {
		t.Fatalf("%d tables, want %d", len(snap.Tables), snap.Params.L())
	}
	fam, err := lshhash.NewFamily(snap.Params)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.StaticFromTables(fam, snap.Rows, snap.Tables, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Build(fam, snap.Arena, core.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < got.NumTables(); l++ {
		for key := 0; key < snap.Params.Buckets(); key++ {
			if g, w := got.Table(l).Bucket(nil, uint32(key)), want.Table(l).Bucket(nil, uint32(key)); !slices.Equal(g, w) {
				t.Fatalf("table %d bucket %d: loaded %v, built %v", l, key, g, w)
			}
		}
	}
	if !bytes.Equal(encode(t, snap), fixture(t, "snapshot-v6.plsh")) {
		t.Fatal("rewriting testdata/snapshot-v6.plsh changes its bytes: the on-disk format changed")
	}
}

// TestReadsVersion4Fixture and TestReadsVersion5Fixture: a file written
// before the family of one-byte coefficients loads without its tables —
// an older family hashed them — and with everything else the version-6
// file of the same node holds.
func TestReadsVersion4Fixture(t *testing.T) { loadsWithoutTables(t, "snapshot-v4.plsh", 4) }

func TestReadsVersion5Fixture(t *testing.T) { loadsWithoutTables(t, "snapshot-v5.plsh", 5) }

func loadsWithoutTables(t *testing.T, name string, version uint32) {
	snap, v6 := loadFixture(t, name, version), loadFixture(t, "snapshot-v6.plsh", 6)
	if snap.Tables != nil {
		t.Fatalf("%s loaded %d tables an older family hashed", name, len(snap.Tables))
	}
	if snap.Params != v6.Params || snap.Capacity != v6.Capacity || !slices.Equal(snap.Deleted, v6.Deleted) {
		t.Fatalf("%s: params %+v capacity %d tombstones %x; version 6 holds %+v %d %x",
			name, snap.Params, snap.Capacity, snap.Deleted, v6.Params, v6.Capacity, v6.Deleted)
	}
	for i := range snap.Rows {
		if g, w := snap.Arena.Row(i), v6.Arena.Row(i); !slices.Equal(g.Idx, w.Idx) || !slices.Equal(g.Val, w.Val) {
			t.Fatalf("%s: row %d is %v, version 6 holds %v", name, i, g, w)
		}
	}
}

// TestDroppedTablesStayUnderTheChecksum: the tables of a version-5 file
// are read past, not trusted blind — a flipped byte inside one fails the
// CRC as it would anywhere else in the file.
func TestDroppedTablesStayUnderTheChecksum(t *testing.T) {
	raw := slices.Clone(fixture(t, "snapshot-v5.plsh"))
	// The header's 48 bytes, the arena (its non-zero count, the row
	// offsets, the columns and the values), the table count and the first
	// table's length word: then its first byte.
	nnz := int(binary.LittleEndian.Uint64(raw[48:]))
	raw[56+61*4+8*nnz+4+8] ^= 1
	if _, err := decode(raw); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("a flipped table byte in a version-5 file: err = %v, want a checksum mismatch", err)
	}
}

// TestRefusesVersion3Fixture: the committed version-3 file, whose tables
// carry no key bits, is ErrCorrupt naming its version, not tables read some
// other way.
func TestRefusesVersion3Fixture(t *testing.T) {
	_, err := decode(fixture(t, "snapshot-v3.plsh"))
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "version 3") {
		t.Fatalf("version-3 fixture: err = %v, want ErrCorrupt naming version 3", err)
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
// in the first. The table's offsets take the bit length of its one block's
// span, items (core.Table): 8 bits at 255, 9 at 256, 16 at 2^16−1 and 17 at
// 2^16.
func stormSnapshot(t testing.TB, items int) *Snapshot {
	t.Helper()
	arena := sparse.NewMatrix(8, 1, 1)
	arena.AppendRow(sparse.Vector{Idx: []uint32{3}, Val: []float32{1}})
	return &Snapshot{
		Params:   lshhash.Params{Dim: 8, K: 2, M: 2, Seed: 1},
		Capacity: 1,
		Rows:     1,
		Arena:    arena,
		Tables:   []core.Table{core.TableFromWords([]uint32{0, uint32(items)}, make([]uint32, items), 0)},
		Deleted:  []uint64{0},
	}
}

// wideSnapshot is stormSnapshot's file with its table replaced by one
// written by hand as core.Table.AppendEncoded lays a table out: items that
// carry no key bits, one directory block of base 0 whose buckets start at
// offsets, the last of them repeated to the block's 65, over ids, the
// offsets and the ids width bits a value. At 32 bits a value is one
// little-endian word, more bits than the values need but a width a table
// may hold; at 33 the arrays are as long as that width takes, all zero,
// and the width is one no table holds.
func wideSnapshot(t testing.TB, offsets, ids []uint32, width int) []byte {
	t.Helper()
	block := slices.Clone(offsets)
	for len(block) < 65 {
		block = append(block, offsets[len(offsets)-1])
	}
	enc := binary.LittleEndian.AppendUint32(nil, 0) // no key bits on the items
	for _, vals := range [][]uint32{block, ids} {
		count, lead := len(vals), 0
		if len(vals) == 65 {
			count, lead = 1, 32 // one block: its 32-bit base, 0, before the offsets
		}
		enc = binary.LittleEndian.AppendUint32(enc, uint32(count))
		enc = binary.LittleEndian.AppendUint32(enc, uint32(width))
		array := make([]byte, (lead+len(vals)*width+7)/8+8)
		if width == 32 {
			for i, v := range vals {
				binary.LittleEndian.PutUint32(array[lead/8+4*i:], v)
			}
		}
		enc = append(enc, array...)
	}
	s := stormSnapshot(t, 1)
	raw, table := encode(t, s), s.Tables[0].AppendEncoded(nil)
	at := bytes.LastIndex(raw, table) - 8 // the table's length word
	return withChecksum(slices.Concat(raw[:at], binary.LittleEndian.AppendUint64(nil, uint64(len(enc))), enc, raw[at+8+len(table):]))
}

// stormSizes are the bucket sizes of entryCorpus's packed snapshots: two
// pairs that straddle a step of the directory offsets' width, a small one
// and one at 2^16.
var stormSizes = []int{255, 256, 1<<16 - 1, 1 << 16}

// entryCorpus is what storing the packed arrays as they are held adds to
// the decoder's inputs: a table on either side of two width steps of its
// offsets, and one held at 32 bits a value, which must load; and offsets
// no table can have, or a width past 32, which must not.
func entryCorpus(t testing.TB) (valid, corrupt [][]byte) {
	for _, items := range stormSizes {
		valid = append(valid, encode(t, stormSnapshot(t, items)))
	}
	three := make([]uint32, 3)
	valid = append(valid, wideSnapshot(t, []uint32{0, 3}, three, 32))
	corrupt = [][]byte{
		wideSnapshot(t, []uint32{0, 2, 1, 3}, three, 32),          // two out of order
		wideSnapshot(t, []uint32{0, 1<<32 - 1<<20, 3}, three, 32), // wraps below 0: 32 bits wide
		wideSnapshot(t, []uint32{0, 4}, three, 32),                // closes past the items
		wideSnapshot(t, []uint32{0, 2}, three, 32),                // closes short of them
		wideSnapshot(t, []uint32{0, 3 + 1<<16}, three, 32),        // and 2^16 past
		wideSnapshot(t, []uint32{0, 3}, three, 33),                // a width no table holds
	}
	return valid, corrupt
}

// TestEntryWidthsOnDisk: the file holds a table's arrays at the width the
// table holds them in, so a table on either side of a width step, and one
// held at 32 bits a value, loads, answers and goes back to disk as the same
// bytes; offsets that decrease or do not close at the items, and a width
// past 32, are ErrCorrupt, not a table.
func TestEntryWidthsOnDisk(t *testing.T) {
	valid, corrupt := entryCorpus(t)
	for i, raw := range valid {
		snap, err := decode(raw)
		if err != nil {
			t.Fatalf("valid snapshot %d: %v", i, err)
		}
		// Every valid table is one bucket of all its items.
		if got, all := len(snap.Tables[0].Bucket(nil, 0)), len(snap.Tables[0].AppendItems(nil)); got != all || got == 0 {
			t.Fatalf("valid snapshot %d: bucket 0 holds %d of %d items", i, got, all)
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
	// A real index round-trips byte for byte too.
	raw := encode(t, testSnapshot(t, 100))
	snap, err := decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, snap), raw) {
		t.Fatal("writing a snapshot that was read changes the file")
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
	for _, name := range []string{"snapshot-v3.plsh", "snapshot-v4.plsh", "snapshot-v5.plsh", "snapshot-v6.plsh"} {
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
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, raw := range [][]byte{data, withChecksum(data)} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			snap, err := decode(raw)
			runtime.ReadMemStats(&after)
			// 16 bytes a byte covers the widest sections: a table's bytes
			// read into scratch that may double as it grows (2), then
			// copied into the table's arrays (1), and the shortest table
			// an 88-byte core.Table over 44 bytes at least (its length
			// word, the smallest encoding's five words and two paddings:
			// 2 a byte); the tables of versions 4 and 5 are read through
			// a fixed chunk and allocate nothing. The constant is the
			// runtime's own background allocation.
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
