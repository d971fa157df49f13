package persist_test

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"plsh/internal/core"
	"plsh/internal/lshhash"
	"plsh/internal/node"
	"plsh/internal/persist"
	"plsh/internal/sparse"
)

// This file is an external test package because recovery is part of what
// it drives: internal/node imports persist, so only from out here can a
// journal be replayed into a real node.

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frame wraps payload as one journal frame: length, CRC-32C, payload.
func frame(payload []byte) []byte {
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, castagnoli))
	return append(out, payload...)
}

// replayAllocLimit is what replaying a journal of n bytes may allocate. A
// decoded document header is 48 bytes for the 2 of its lengths in the
// vectors block and a 9-byte retire frame becomes a 64-byte Record, 24
// bytes a byte at the most, which 16 a byte and the 1 MB of slack cover
// up to a 120 KB journal, far past what the fuzzer writes. The constant is
// slack, not a measurement: the reader's 64 KB buffer plus whatever else
// the process allocates meanwhile (TotalAlloc is process-wide, so tests in
// this package stay serial — no t.Parallel). The frames this guards
// against cost 1 GB and up.
func replayAllocLimit(n int) uint64 { return uint64(1<<20 + 16*n) }

// replaySegmentBytes replays a data directory whose one journal segment
// holds raw, reporting the records delivered, the bytes allocated on the
// way and the replay's error. The directory is returned for recovery.
func replaySegmentBytes(t testing.TB, raw []byte) (dir string, records int, allocated uint64, err error) {
	t.Helper()
	dir = t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal-00000001.log"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = persist.ReplayWAL(dir, func(*persist.Record) error { records++; return nil })
	runtime.ReadMemStats(&after)
	return dir, records, after.TotalAlloc - before.TotalAlloc, err
}

// hugeCountFrame is a CRC-valid insert record that claims 2^27 documents
// in a 13-byte payload; tornHugeLength is the 8-byte tail of a torn append
// whose length field reads 2^30, the largest a frame may claim.
var (
	hugeCountFrame = frame(binary.AppendUvarint(
		binary.LittleEndian.AppendUint64([]byte{byte(persist.RecordInsert)}, 0), 1<<27))
	tornHugeLength = binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, 1<<30), 0xdeadbeef)
)

// TestReplayDoesNotSizeAllocationsFromLengthFields: replay sized the
// document slice from a record's count (6 GB and half a minute for this
// 21-byte file before it answered "malformed") and the payload buffer from
// a frame's length (1 GB for this 8-byte one). The payload bounds the
// first, the file the second.
func TestReplayDoesNotSizeAllocationsFromLengthFields(t *testing.T) {
	_, records, allocated, err := replaySegmentBytes(t, hugeCountFrame)
	if !errors.Is(err, persist.ErrCorrupt) || records != 0 {
		t.Fatalf("count past the payload: %d records, err = %v, want ErrCorrupt", records, err)
	}
	if limit := replayAllocLimit(len(hugeCountFrame)); allocated > limit {
		t.Fatalf("count past the payload: replaying %d bytes allocated %d, over %d", len(hugeCountFrame), allocated, limit)
	}
	_, records, allocated, err = replaySegmentBytes(t, tornHugeLength)
	if err != nil || records != 0 {
		t.Fatalf("length past the file: %d records, err = %v, want a silent tear", records, err)
	}
	if limit := replayAllocLimit(len(tornHugeLength)); allocated > limit {
		t.Fatalf("length past the file: replaying %d bytes allocated %d, over %d", len(tornHugeLength), allocated, limit)
	}
}

// TestReplayRefusesKindOneRecords: kind 1 is an insert in the journal
// layout before the vectors block — a u32 count, then each document as its
// nnz u32, its indexes and its values. Replay refuses it as corruption,
// naming the kind, rather than misread it, and a node recovering from it
// fails to open rather than load what it could of the journal.
func TestReplayRefusesKindOneRecords(t *testing.T) {
	old := binary.LittleEndian.AppendUint64([]byte{1}, 0) // kind 1, base 0
	old = binary.LittleEndian.AppendUint32(old, 1)        // one document
	old = binary.LittleEndian.AppendUint32(old, 2)        // nnz
	for _, x := range []uint32{1, 5, math.Float32bits(0.6), math.Float32bits(0.8)} {
		old = binary.LittleEndian.AppendUint32(old, x)
	}
	dir, records, _, err := replaySegmentBytes(t, frame(old))
	if !errors.Is(err, persist.ErrCorrupt) || !strings.Contains(err.Error(), "kind 1") || records != 0 {
		t.Fatalf("kind-1 record: %d records, err = %v, want ErrCorrupt naming kind 1", records, err)
	}
	n, err := node.Open(context.Background(), fuzzNodeConfig(dir))
	if !errors.Is(err, persist.ErrCorrupt) || n != nil {
		t.Fatalf("node.Open over a kind-1 record: node %v, err = %v, want no node and ErrCorrupt", n, err)
	}
}

// fuzzNodeConfig is the small node fuzzed journals are recovered into:
// Dim 16 and Capacity 8, so the seed journal fits and most mutated columns
// and bases do not.
func fuzzNodeConfig(dir string) node.Config {
	return node.Config{
		Params:   lshhash.Params{Dim: 16, K: 4, M: 4, Seed: 7},
		Capacity: 8,
		Build:    core.Defaults(),
		Query:    core.QueryDefaults(),
		Dir:      dir,
	}
}

// seedJournal is a journal as the WAL itself frames it, one record of
// every kind: an insert, a delete, a second insert, a retirement, the
// insert that follows it at row 0, and one whose first document has no
// non-zeros — two zero lengths in the vectors block, carved as nil.
func seedJournal(t testing.TB) []byte {
	t.Helper()
	dir := t.TempDir()
	w, err := persist.OpenWAL(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	docs := []sparse.Vector{
		{Idx: []uint32{1, 5}, Val: []float32{0.6, 0.8}},
		{Idx: []uint32{2}, Val: []float32{1}},
		{Idx: []uint32{0, 15}, Val: []float32{0.8, 0.6}},
	}
	err = errors.Join(
		w.AppendInsert(0, docs),
		w.AppendDelete(1),
		w.AppendInsert(3, docs[:2]),
		w.AppendRetire(),
		w.AppendInsert(0, docs[1:]),
		w.AppendInsert(2, []sparse.Vector{{}, docs[0]}),
		w.Close(),
	)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "wal-00000001.log"))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// FuzzReplayWAL: journal bytes come from disk, so whatever they say, replay
// ends in an ErrCorrupt error or in records — never a panic — having
// allocated in proportion to the file, not to the lengths it claims; and
// recovering a small real node from the same directory ends in an error or
// in a node that answers Stats. Each input is tried as given, a stream of
// frames, and as the payload of one frame with a correct checksum, which
// is what gets a mutation past the CRC and into the record decoder. Seeds
// are a real journal cut at every byte, its records' payloads, and the two
// regression frames.
func FuzzReplayWAL(f *testing.F) {
	journal := seedJournal(f)
	for cut := 0; cut <= len(journal); cut++ {
		f.Add(journal[:cut])
	}
	for off := 0; off < len(journal); { // and each record's bare payload
		end := off + 8 + int(binary.LittleEndian.Uint32(journal[off:]))
		f.Add(journal[off+8 : end])
		off = end
	}
	f.Add(hugeCountFrame)
	f.Add(hugeCountFrame[8:])
	f.Add(tornHugeLength)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, raw := range [][]byte{data, frame(data)} {
			dir, _, allocated, err := replaySegmentBytes(t, raw)
			if limit := replayAllocLimit(len(raw)); allocated > limit {
				t.Fatalf("replaying %d bytes allocated %d, over %d", len(raw), allocated, limit)
			}
			if err != nil && !errors.Is(err, persist.ErrCorrupt) {
				t.Fatalf("replay error does not wrap ErrCorrupt: %v", err)
			}
			n, err := node.Open(context.Background(), fuzzNodeConfig(dir))
			if err != nil {
				continue
			}
			if st := n.Stats(); st.StaticLen+st.DeltaLen > st.Capacity {
				t.Fatalf("recovered %d+%d rows into a capacity of %d", st.StaticLen, st.DeltaLen, st.Capacity)
			}
			if err := n.Close(); err != nil {
				t.Fatal(err)
			}
		}
	})
}
