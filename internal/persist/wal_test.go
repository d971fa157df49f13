package persist

import (
	"bytes"
	"encoding/hex"
	"os"
	"reflect"
	"testing"

	"plsh/internal/israce"
	"plsh/internal/sparse"
)

// wireInsertFrame is the opInsert frame of internal/transport's golden
// request stream (wire_golden_test.go), byte for byte: length u32, seq 1,
// op 1, deadline 0, then the vectors block of goldenBatch.
const wireInsertFrame = "1d000000" + "01" + "01" + "0000000000000000" +
	"01" + "0202" + "0100000005000000" + "0000003f0000803e"

// goldenBatch is the batch the wire's golden insert frame carries.
func goldenBatch() []sparse.Vector {
	return []sparse.Vector{{Idx: []uint32{1, 5}, Val: []float32{0.5, 0.25}}}
}

// TestWALRecordGolden pins the journal's bytes: one frame of each record
// kind as the WAL writes it — length u32, CRC-32C u32, payload — and what
// it replays to. An insert record's body after kind | base is the vectors
// block the wire carries the same batch in, so the two layouts cannot
// drift apart; a change to either shows up here.
func TestWALRecordGolden(t *testing.T) {
	cases := []struct {
		name  string
		write func(*WAL) error
		frame string
		rec   Record
	}{
		{"insert", func(w *WAL) error { return w.AppendInsert(7, goldenBatch()) },
			"1c000000" + "f5294b6b" + "04" + "0700000000000000" + "01" + "0202" + "0100000005000000" + "0000003f0000803e",
			Record{Kind: RecordInsert, Base: 7, Docs: goldenBatch()}},
		{"delete", func(w *WAL) error { return w.AppendDelete(42) },
			"05000000" + "81fd56ab" + "02" + "2a000000",
			Record{Kind: RecordDelete, ID: 42}},
		{"retire", func(w *WAL) error { return w.AppendRetire() },
			"01000000" + "a5a02d41" + "03",
			Record{Kind: RecordRetire}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			w, err := OpenWAL(dir, false)
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.write(w); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(segmentPath(dir, 1))
			if err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(raw); got != tc.frame {
				t.Errorf("frame = %s\n          want %s", got, tc.frame)
			}
			got := replayAll(t, dir)
			if len(got) != 1 || !reflect.DeepEqual(*got[0], tc.rec) {
				t.Errorf("replayed %+v, want %+v", got, tc.rec)
			}
		})
	}
	journal, _ := hex.DecodeString(cases[0].frame)
	wire, _ := hex.DecodeString(wireInsertFrame)
	body := journal[8+1+8:]   // frame header, kind, base
	vectors := wire[4+1+1+8:] // frame length, seq, op, deadline
	if !bytes.Equal(body, vectors) {
		t.Errorf("insert record body %x differs from the wire's vectors block %x", body, vectors)
	}
}

// TestReplayAllocatesPerRecordNotPerDocument: replay carves a record's
// documents from one index and one value array, so its allocations follow
// the records, not the documents in them. The layout before the vectors
// block allocated two arrays a document — 10 000 and up here.
func TestReplayAllocatesPerRecordNotPerDocument(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are not pinned under the race detector")
	}
	const records, batch, perRecord = 50, 100, 8
	dir := t.TempDir()
	w, err := OpenWAL(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	docs := walDocs(batch, 1)
	for i := range records {
		if err := w.AppendInsert(i*batch, docs); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var seen int
	allocs := testing.AllocsPerRun(5, func() {
		seen = 0
		if err := ReplayWAL(dir, func(r *Record) error { seen += len(r.Docs); return nil }); err != nil {
			t.Fatal(err)
		}
	})
	if seen != records*batch {
		t.Fatalf("replayed %d documents, want %d", seen, records*batch)
	}
	if allocs > records*perRecord {
		t.Fatalf("replaying %d records of %d documents allocated %.0f times, over %d a record",
			records, batch, allocs, perRecord)
	}
	t.Logf("%.0f allocations for %d records", allocs, records)
}
