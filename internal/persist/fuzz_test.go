package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"plsh/internal/sparse"
)

// The committed fixtures are one 60-row node (Dim 256, K 6, M 4, two
// tombstones) saved five times: snapshot-v3.plsh by the last commit that
// wrote tables without the key bits their items carry, snapshot-v4.plsh by
// reading that file back and writing it as version 4, snapshot-v5.plsh by
// reading the version-4 file back and writing it as version 5, the
// directory in 64-bucket blocks, snapshot-v6.plsh by opening the version-5
// file in a node, which builds the tables over its arena under the family
// of one-byte coefficients, and saving it, and snapshot-v7.plsh, which
// holds no tables, by opening the version-6 file in a node and saving it.
// Version 3 is no longer read; its file is the input the refusal test
// reads.
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

// TestReadsVersion7Fixture: the committed version-7 file loads, and
// writing it back out yields exactly its own bytes — which pins the format
// against accidental change.
func TestReadsVersion7Fixture(t *testing.T) {
	snap := loadFixture(t, "snapshot-v7.plsh", 7)
	if !bytes.Equal(encode(t, snap), fixture(t, "snapshot-v7.plsh")) {
		t.Fatal("rewriting testdata/snapshot-v7.plsh changes its bytes: the on-disk format changed")
	}
}

// TestReadsVersion4Fixture, TestReadsVersion5Fixture and
// TestReadsVersion6Fixture: a file that stored the tables loads with its
// tables read past, and with everything the version-7 file of the same node
// holds.
func TestReadsVersion4Fixture(t *testing.T) { loadsWithoutTables(t, "snapshot-v4.plsh", 4) }

func TestReadsVersion5Fixture(t *testing.T) { loadsWithoutTables(t, "snapshot-v5.plsh", 5) }

func TestReadsVersion6Fixture(t *testing.T) { loadsWithoutTables(t, "snapshot-v6.plsh", 6) }

func loadsWithoutTables(t *testing.T, name string, version uint32) {
	snap, v7 := loadFixture(t, name, version), loadFixture(t, "snapshot-v7.plsh", 7)
	if snap.Params != v7.Params || snap.Capacity != v7.Capacity || !slices.Equal(snap.Deleted, v7.Deleted) {
		t.Fatalf("%s: params %+v capacity %d tombstones %x; version 7 holds %+v %d %x",
			name, snap.Params, snap.Capacity, snap.Deleted, v7.Params, v7.Capacity, v7.Deleted)
	}
	for i := range snap.Rows {
		if g, w := snap.Arena.Row(i), v7.Arena.Row(i); !slices.Equal(g.Idx, w.Idx) || !slices.Equal(g.Val, w.Val) {
			t.Fatalf("%s: row %d is %v, version 7 holds %v", name, i, g, w)
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
// error or in a snapshot whose arena holds its rows; it never panics, and
// it allocates in proportion to the input, not to the lengths the input
// claims. Each input is tried as given and with a corrected checksum.
func FuzzReadSnapshot(f *testing.F) {
	for v := 3; v <= 7; v++ {
		raw := fixture(f, fmt.Sprintf("snapshot-v%d.plsh", v))
		f.Add(raw)
		for _, cut := range []int{0, 1, 7, 8, len(raw) / 2, len(raw) - 1} {
			f.Add(raw[:cut])
		}
	}
	// Version 7 at its edges: no rows, a real index's worth, tombstone words
	// one short of the rows, and a version-6 table count left after the
	// arena.
	f.Add(encode(f, &Snapshot{Params: testParams(), Arena: sparse.NewMatrix(testParams().Dim, 0, 0)}))
	raw := encode(f, testSnapshot(f, 100))
	f.Add(raw)
	short := testSnapshot(f, 100)
	short.Deleted = short.Deleted[:1]
	f.Add(encode(f, short))
	nnz := int(binary.LittleEndian.Uint64(raw[48:]))
	arenaEnd := 56 + 4*101 + 8*nnz
	f.Add(withChecksum(slices.Concat(raw[:arenaEnd], make([]byte, 4), raw[arenaEnd:])))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, raw := range [][]byte{data, withChecksum(data)} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			snap, err := decode(raw)
			runtime.ReadMemStats(&after)
			// 4 bytes a byte covers what a decode keeps and what it reads
			// through: the read buffer, no larger than the file (1), and the
			// arena and tombstone arrays, each one allocation of exactly
			// its words (1); the tables of versions 4 to 6 are read through
			// a fixed chunk and allocate nothing. The constant is the
			// runtime's own background allocation.
			if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+4*len(raw)); got > limit {
				t.Fatalf("decoding %d bytes allocated %d, over %d", len(raw), got, limit)
			}
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("error does not wrap ErrCorrupt: %v", err)
				}
				continue
			}
			if snap.Arena.Rows() != snap.Rows || len(snap.Deleted) != (snap.Rows+63)/64 {
				t.Fatalf("accepted %d rows over a %d-row arena and %d tombstone words", snap.Rows, snap.Arena.Rows(), len(snap.Deleted))
			}
		}
	})
}
