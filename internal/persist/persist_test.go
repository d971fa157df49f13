package persist

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"plsh/internal/core"
	"plsh/internal/corpus"
	"plsh/internal/israce"
	"plsh/internal/lshhash"
	"plsh/internal/sparse"
)

func testParams() lshhash.Params {
	return lshhash.Params{Dim: 500, K: 8, M: 4, Seed: 7}
}

// testSnapshot builds a small but fully populated snapshot: real documents,
// real static tables, and a few tombstones.
func testSnapshot(t testing.TB, n int) *Snapshot {
	t.Helper()
	p := testParams()
	fam, err := lshhash.NewFamily(p)
	if err != nil {
		t.Fatal(err)
	}
	c := corpus.Generate(corpus.Twitter(n, p.Dim, 3))
	st, err := core.Build(fam, c.Mat, core.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	del := make([]uint64, (n+63)/64)
	if n > 2 {
		del[0] |= 1 << 2
	}
	return &Snapshot{
		Params:   p,
		Capacity: 4 * n,
		Rows:     n,
		Arena:    c.Mat,
		Tables:   st.Tables(),
		Deleted:  del,
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := testSnapshot(t, 100)
	if err := WriteSnapshot(dir, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Params != s.Params || got.Rows != s.Rows || got.Capacity != s.Capacity {
		t.Fatalf("header mismatch: %+v vs %+v", got, s)
	}
	if got.Arena.Rows() != s.Arena.Rows() || got.Arena.NNZ() != s.Arena.NNZ() {
		t.Fatalf("arena shape mismatch")
	}
	for i := 0; i < s.Rows; i++ {
		a, b := s.Arena.Row(i), got.Arena.Row(i)
		if len(a.Idx) != len(b.Idx) {
			t.Fatalf("row %d nnz mismatch", i)
		}
		for j := range a.Idx {
			if a.Idx[j] != b.Idx[j] || a.Val[j] != b.Val[j] {
				t.Fatalf("row %d entry %d mismatch", i, j)
			}
		}
	}
	if len(got.Tables) != len(s.Tables) {
		t.Fatalf("table count %d vs %d", len(got.Tables), len(s.Tables))
	}
	for l := range s.Tables {
		if !bytes.Equal(s.Tables[l].AppendEncoded(nil), got.Tables[l].AppendEncoded(nil)) {
			t.Fatalf("table %d mismatch", l)
		}
	}
	if len(got.Deleted) != len(s.Deleted) || got.Deleted[0] != s.Deleted[0] {
		t.Fatalf("tombstones mismatch")
	}
	// The loaded tables must reassemble into a valid Static.
	fam, _ := lshhash.NewFamily(got.Params)
	if _, err := core.StaticFromTables(fam, got.Rows, got.Tables, 1); err != nil {
		t.Fatalf("StaticFromTables: %v", err)
	}
}

func TestSnapshotMissing(t *testing.T) {
	if _, err := ReadSnapshot(t.TempDir()); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("want ErrNoSnapshot, got %v", err)
	}
}

// TestReadSnapshotAllocatesEachArrayOnce: loading a snapshot that holds an
// arena and no tables allocates the arena's arrays, the tombstone words and
// the read buffer, and next to nothing else — each array is decoded
// straight into its one allocation. A reader that decoded the offsets and
// values as []uint32 and then converted them would allocate both twice,
// 4·(rows+1) + 4·nnz bytes over this bound.
func TestReadSnapshotAllocatesEachArrayOnce(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation sizes are not pinned under the race detector")
	}
	const rows = 5000
	p := testParams()
	s := &Snapshot{
		Params:   p,
		Capacity: rows,
		Rows:     rows,
		Arena:    corpus.Generate(corpus.Twitter(rows, p.Dim, 3)).Mat,
		Deleted:  make([]uint64, (rows+63)/64),
	}
	dir := t.TempDir()
	if err := WriteSnapshot(dir, s); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(SnapshotPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	nnz := s.Arena.NNZ()
	arena := uint64(4*(rows+1) + 8*nnz + 8*len(s.Deleted))
	buffer := uint64(min(fi.Size(), 1<<20))
	// The reader's own state (its 4 KiB chunk), the file, the structs,
	// and the rounding of each array up to its size class or page.
	const slack = 40 << 10

	const runs = 4
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range runs {
		if _, err := ReadSnapshot(dir); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	got := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("ReadSnapshot allocated %d bytes: arena %d, buffer %d", got, arena, buffer)
	if got > arena+buffer+slack {
		t.Fatalf("ReadSnapshot allocated %d bytes, over the arena's %d + the buffer's %d + %d",
			got, arena, buffer, slack)
	}
}

// TestSnapshotCorruptionRejected flips each of a spread of bytes and
// asserts every corrupted file is rejected — never loaded as garbage.
func TestSnapshotCorruptionRejected(t *testing.T) {
	dir := t.TempDir()
	if err := WriteSnapshot(dir, testSnapshot(t, 60)); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(SnapshotPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	step := len(orig)/64 + 1
	for off := 0; off < len(orig); off += step {
		mut := append([]byte(nil), orig...)
		mut[off] ^= 0xA5
		if err := os.WriteFile(SnapshotPath(dir), mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadSnapshot(dir); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at %d: want ErrCorrupt, got %v", off, err)
		}
	}
	// Truncations must be rejected too.
	for _, cut := range []int{0, 1, 7, 8, len(orig) / 2, len(orig) - 1} {
		if err := os.WriteFile(SnapshotPath(dir), orig[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadSnapshot(dir); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncate at %d: want ErrCorrupt, got %v", cut, err)
		}
	}
}

func TestSnapshotAtomicOverwrite(t *testing.T) {
	dir := t.TempDir()
	if err := WriteSnapshot(dir, testSnapshot(t, 20)); err != nil {
		t.Fatal(err)
	}
	s2 := testSnapshot(t, 40)
	if err := WriteSnapshot(dir, s2); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows != 40 {
		t.Fatalf("overwrite kept old snapshot: rows = %d", got.Rows)
	}
	// No temp litter.
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if e.Name() != snapshotName {
			t.Fatalf("unexpected file %s", e.Name())
		}
	}
}

func walDocs(n int, seed uint64) []sparse.Vector {
	c := corpus.Generate(corpus.Twitter(n, 500, seed))
	out := make([]sparse.Vector, n)
	for i := range out {
		out[i] = c.Mat.Row(i)
	}
	return out
}

// appendAll journals a deterministic op sequence and returns the records
// it should replay to.
func appendAll(t *testing.T, w *WAL) []*Record {
	t.Helper()
	var want []*Record
	base := 0
	for i := 0; i < 6; i++ {
		docs := walDocs(3+i, uint64(i+1))
		if err := w.AppendInsert(base, docs); err != nil {
			t.Fatal(err)
		}
		want = append(want, &Record{Kind: RecordInsert, Base: base, Docs: docs})
		base += len(docs)
		if i%2 == 1 {
			id := uint32(base - 1)
			if err := w.AppendDelete(id); err != nil {
				t.Fatal(err)
			}
			want = append(want, &Record{Kind: RecordDelete, ID: id})
		}
	}
	if err := w.AppendRetire(); err != nil {
		t.Fatal(err)
	}
	want = append(want, &Record{Kind: RecordRetire})
	if err := w.AppendInsert(0, walDocs(2, 99)); err != nil {
		t.Fatal(err)
	}
	want = append(want, &Record{Kind: RecordInsert, Base: 0, Docs: walDocs(2, 99)})
	return want
}

func replayAll(t *testing.T, dir string) []*Record {
	t.Helper()
	var got []*Record
	if err := ReplayWAL(dir, func(r *Record) error {
		cp := *r
		cp.Docs = append([]sparse.Vector(nil), r.Docs...)
		got = append(got, &cp)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

func recordsEqual(a, b *Record) bool {
	if a.Kind != b.Kind || a.Base != b.Base || a.ID != b.ID || len(a.Docs) != len(b.Docs) {
		return false
	}
	for i := range a.Docs {
		x, y := a.Docs[i], b.Docs[i]
		if len(x.Idx) != len(y.Idx) {
			return false
		}
		for j := range x.Idx {
			if x.Idx[j] != y.Idx[j] || x.Val[j] != y.Val[j] {
				return false
			}
		}
	}
	return true
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	want := appendAll(t, w)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, dir)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !recordsEqual(got[i], want[i]) {
			t.Fatalf("record %d mismatch:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// TestWALTornTail is the framing property test: for a truncation at every
// single byte offset of the journal, replay loads exactly the records
// whose frames are fully contained — no torn record ever loads, and no
// truncation point produces an error.
func TestWALTornTail(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	want := appendAll(t, w)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	seqs, err := walSegments(dir)
	if err != nil || len(seqs) != 1 {
		t.Fatalf("segments %v (%v)", seqs, err)
	}
	raw, err := os.ReadFile(segmentPath(dir, seqs[0]))
	if err != nil {
		t.Fatal(err)
	}
	// Frame boundaries: walk the encoding.
	var bounds []int
	off := 0
	for off < len(raw) {
		n := int(uint32(raw[off]) | uint32(raw[off+1])<<8 | uint32(raw[off+2])<<16 | uint32(raw[off+3])<<24)
		off += 8 + n
		bounds = append(bounds, off)
	}
	if len(bounds) != len(want) {
		t.Fatalf("%d frames, want %d", len(bounds), len(want))
	}
	for cut := 0; cut <= len(raw); cut++ {
		sub := filepath.Join(t.TempDir(), "w")
		if err := os.MkdirAll(sub, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(segmentPath(sub, 1), raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got := replayAll(t, sub)
		complete := 0
		for _, b := range bounds {
			if b <= cut {
				complete++
			}
		}
		if len(got) != complete {
			t.Fatalf("cut %d: replayed %d records, want %d", cut, len(got), complete)
		}
		for i := 0; i < complete; i++ {
			if !recordsEqual(got[i], want[i]) {
				t.Fatalf("cut %d: record %d mismatch", cut, i)
			}
		}
	}
}

// TestWALRotateCheckpointTruncates: rotation segments the journal, and a
// checkpoint at a token removes exactly the pre-rotation segments.
func TestWALRotateCheckpointTruncates(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendInsert(0, walDocs(4, 1)); err != nil {
		t.Fatal(err)
	}
	token, err := w.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendInsert(4, walDocs(2, 2)); err != nil {
		t.Fatal(err)
	}
	if err := w.Checkpoint(testSnapshot(t, 4), token); err != nil {
		t.Fatal(err)
	}
	seqs, err := walSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 1 || seqs[0] != token {
		t.Fatalf("segments after checkpoint: %v, want [%d]", seqs, token)
	}
	// Only the post-rotation record remains.
	got := replayAll(t, dir)
	if len(got) != 1 || got[0].Base != 4 {
		t.Fatalf("post-checkpoint replay: %+v", got)
	}
	// A stale checkpoint (lower token) must be skipped, not regress the
	// snapshot: the higher checkpoint's snapshot stays.
	if err := w.Checkpoint(testSnapshot(t, 2), token-1); err != nil {
		t.Fatal(err)
	}
	snap, err := ReadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Rows != 4 {
		t.Fatalf("stale checkpoint regressed snapshot to %d rows", snap.Rows)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendDelete(0); !errors.Is(err, errWALClosed) {
		t.Fatalf("append after close: %v", err)
	}
}

// TestWALCheckpointFailureKeepsJournal: a checkpoint whose snapshot cannot
// be published fails, and the segments it would have truncated stay, so
// every record from before its token still replays.
func TestWALCheckpointFailureKeepsJournal(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.AppendInsert(0, walDocs(4, 1)); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendDelete(2); err != nil {
		t.Fatal(err)
	}
	token, err := w.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	// A non-empty directory where the snapshot goes: renaming a file over
	// it fails whoever runs the test, root included.
	if err := os.MkdirAll(filepath.Join(SnapshotPath(dir), "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := w.Checkpoint(testSnapshot(t, 4), token); err == nil {
		t.Fatal("checkpoint succeeded without publishing its snapshot")
	}
	got := replayAll(t, dir)
	if len(got) != 2 || got[0].Kind != RecordInsert || got[1].Kind != RecordDelete {
		t.Fatalf("after a failed checkpoint the journal replays %+v, want the insert and the delete", got)
	}
}

// DESIGN's audit row l5: a checkpoint serializes on its own lock, never on
// the append lock, and a rotation never takes the checkpoint lock. So while
// a checkpoint is held open before its snapshot write, AppendInsert,
// AppendDelete and Rotate all return; a lock taken across the two would
// park them behind the snapshot write, and this fails after a few seconds
// instead. The records appended meanwhile sit at or past the checkpoint's
// token, so its truncation keeps them.
func TestWALAppendsAndRotateRunDuringHeldCheckpoint(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.AppendInsert(0, walDocs(4, 1)); err != nil {
		t.Fatal(err)
	}
	token, err := w.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	snap := testSnapshot(t, 4)

	entered, hold := make(chan struct{}), make(chan struct{})
	testHookCheckpoint = func() { close(entered); <-hold }
	var once sync.Once
	release := func() { once.Do(func() { close(hold) }) }
	defer release() // before w.Close, which may wait on the held checkpoint
	checkpointed := make(chan error, 1)
	go func() { checkpointed <- w.Checkpoint(snap, token) }()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("Checkpoint never reached its hold")
	}
	// The checkpoint has read the hook, so clearing it races nothing.
	testHookCheckpoint = nil

	appended := make(chan error, 1)
	go func() {
		if err := w.AppendInsert(4, walDocs(2, 2)); err != nil {
			appended <- err
			return
		}
		if err := w.AppendDelete(5); err != nil {
			appended <- err
			return
		}
		_, err := w.Rotate()
		appended <- err
	}()
	select {
	case err := <-appended:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("AppendInsert, AppendDelete or Rotate blocked behind a held checkpoint")
	}
	release()
	if err := <-checkpointed; err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, dir)
	if len(got) != 2 || got[0].Kind != RecordInsert || got[0].Base != 4 || got[1].Kind != RecordDelete {
		t.Fatalf("after the checkpoint the journal replays %+v, want the insert at 4 and the delete appended during it", got)
	}
}

// TestWALSyncWritesFsyncsEachAppend: on a journal opened with SyncWrites
// each append is fsynced before it returns, one fsync a record.
func TestWALSyncWritesFsyncsEachAppend(t *testing.T) {
	w, err := OpenWAL(t.TempDir(), true)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i, app := range []struct {
		name string
		do   func() error
	}{
		{"AppendInsert", func() error { return w.AppendInsert(0, walDocs(2, 1)) }},
		{"AppendDelete", func() error { return w.AppendDelete(1) }},
		{"AppendRetire", w.AppendRetire},
	} {
		if err := app.do(); err != nil {
			t.Fatal(err)
		}
		if got := w.syncHist.Count(); got != uint64(i+1) {
			t.Fatalf("%s: %d fsyncs after %d appends", app.name, got, i+1)
		}
	}
}

// TestWALReopenAppendsNewSegment: reopening never appends to an old
// (possibly torn) segment.
func TestWALReopenAppendsNewSegment(t *testing.T) {
	dir := t.TempDir()
	w, _ := OpenWAL(dir, false)
	if err := w.AppendInsert(0, walDocs(2, 1)); err != nil {
		t.Fatal(err)
	}
	w.Close()
	w2, err := OpenWAL(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.AppendInsert(2, walDocs(2, 2)); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	seqs, _ := walSegments(dir)
	if len(seqs) != 2 {
		t.Fatalf("segments %v, want two", seqs)
	}
	got := replayAll(t, dir)
	if len(got) != 2 || got[0].Base != 0 || got[1].Base != 2 {
		t.Fatalf("cross-segment replay: %+v", got)
	}
}

// TestWALTornMidSequenceSegment: a crash→recover→crash history leaves a
// torn tail in a non-final segment; replay must drop only the tear and
// keep every acknowledged record from the following segments.
func TestWALTornMidSequenceSegment(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendInsert(0, walDocs(3, 1)); err != nil {
		t.Fatal(err)
	}
	w.Close()
	// Simulate a kill mid-append: garbage half-frame at segment 1's tail.
	f, err := os.OpenFile(segmentPath(dir, 1), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x20, 0, 0, 0, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	// The next boot opens a fresh segment and keeps acknowledging writes.
	w2, err := OpenWAL(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.AppendInsert(3, walDocs(2, 2)); err != nil {
		t.Fatal(err)
	}
	if err := w2.AppendDelete(1); err != nil {
		t.Fatal(err)
	}
	w2.Close()

	got := replayAll(t, dir)
	if len(got) != 3 {
		t.Fatalf("replayed %d records, want 3 (1 before the tear, 2 after)", len(got))
	}
	if got[0].Base != 0 || got[1].Base != 3 || got[2].Kind != RecordDelete {
		t.Fatalf("wrong records across torn segment: %+v", got)
	}
}

// TestWALBrokenSegmentHeals: after an append failure nothing more may be
// acknowledged into the (possibly torn) segment; a rotation opens a
// clean segment and appends resume.
func TestWALBrokenSegmentHeals(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendInsert(0, walDocs(2, 1)); err != nil {
		t.Fatal(err)
	}
	w.f.Close() // sabotage the live handle: the next write fails
	if err := w.AppendDelete(0); err == nil {
		t.Fatal("append on sabotaged segment succeeded")
	}
	if err := w.AppendDelete(0); err == nil {
		t.Fatal("append acknowledged behind a possible tear")
	}
	if _, err := w.Rotate(); err != nil {
		t.Fatalf("rotation did not heal broken journal: %v", err)
	}
	if err := w.AppendDelete(1); err != nil {
		t.Fatalf("append after healing rotation: %v", err)
	}
	w.Close()
	got := replayAll(t, dir)
	if len(got) != 2 || got[0].Kind != RecordInsert || got[1].ID != 1 {
		t.Fatalf("post-heal replay: %+v", got)
	}
}

// TestWALOversizedRecordRejected: a batch whose frame would exceed the
// record limit is refused outright — never acknowledged, never written
// as a frame replay would classify as corruption.
func TestWALOversizedRecordRejected(t *testing.T) {
	old := maxRecordLen
	maxRecordLen = 1 << 12
	defer func() { maxRecordLen = old }()
	dir := t.TempDir()
	w, err := OpenWAL(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.AppendInsert(0, walDocs(200, 1)); err == nil {
		t.Fatal("oversized insert batch accepted")
	}
	if err := w.AppendInsert(0, walDocs(2, 1)); err != nil {
		t.Fatalf("normal append after oversized rejection: %v", err)
	}
	if got := replayAll(t, dir); len(got) != 1 {
		t.Fatalf("replayed %d records, want just the small batch", len(got))
	}
}
