package node

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"plsh/internal/core"
	"plsh/internal/corpus"
	"plsh/internal/israce"
	"plsh/internal/lshhash"
	"plsh/internal/oracle"
	"plsh/internal/persist"
	"plsh/internal/sparse"
)

// durableConfig is testConfig plus a data directory.
func durableConfig(dir string, capacity int) Config {
	cfg := testConfig(capacity)
	cfg.Dir = dir
	return cfg
}

// sameNeighbors asserts two answer sets are identical (ID and distance,
// order-insensitive).
func sameNeighbors(t *testing.T, what string, a, b []core.Neighbor) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d neighbors", what, len(a), len(b))
	}
	am := map[uint32]float64{}
	for _, nb := range a {
		am[nb.ID] = nb.Dist
	}
	for _, nb := range b {
		d, ok := am[nb.ID]
		if !ok {
			t.Fatalf("%s: neighbor %d only on one side", what, nb.ID)
		}
		if d != nb.Dist {
			t.Fatalf("%s: neighbor %d distance %v vs %v", what, nb.ID, d, nb.Dist)
		}
	}
}

// TestDurableJournalOnlyRecovery: with merges disabled, everything lives
// in the journal; reopening must replay it to a node answering exactly
// like one that never restarted. The batches are of 1, 2, 3 and 50 rows in
// turn, so every batch size reaches the journal, a single row included.
func TestDurableJournalOnlyRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir, 1000)
	cfg.AutoMerge = false
	n, err := Open(bg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := Open(bg, testConfig(1000)) // same params, in-memory
	if err != nil {
		t.Fatal(err)
	}
	docs := testDocs(300, 5)
	sizes := []int{1, 2, 3, 50}
	for off, i := 0, 0; off < len(docs); i++ {
		end := min(off+sizes[i%len(sizes)], len(docs))
		for _, tgt := range []*Node{n, oracle} {
			if _, err := tgt.Insert(bg, docs[off:end]); err != nil {
				t.Fatal(err)
			}
		}
		off = end
	}
	for _, id := range []uint32{3, 77, 250} {
		if err := n.Delete(id); err != nil {
			t.Fatal(err)
		}
		if err := oracle.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(bg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 300 {
		t.Fatalf("recovered %d rows, want 300", re.Len())
	}
	for i := 0; i < len(docs); i += 7 {
		sameNeighbors(t, "journal-only recovery",
			mustQuery(t, oracle, docs[i]), mustQuery(t, re, docs[i]))
	}
}

// TestJournalFailureLeavesNodeUntouched: a durable node journals a write
// before it applies it. With the journal closed underneath it, Insert,
// Delete and Retire each fail, and none has changed the node: not the
// published length, not the arena behind it (an insert that appended its
// rows before journaling shows only there) and not the tombstones.
func TestJournalFailureLeavesNodeUntouched(t *testing.T) {
	cfg := durableConfig(t.TempDir(), 1000)
	cfg.AutoMerge = false
	n, err := Open(bg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	docs := testDocs(60, 13)
	if _, err := n.Insert(bg, docs[:50]); err != nil {
		t.Fatal(err)
	}
	if err := n.wal.Close(); err != nil {
		t.Fatal(err)
	}
	untouched := func(op string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s succeeded with the journal closed", op)
		}
		if n.Len() != 50 || n.store.Rows() != 50 || n.deleted.TestAtomic(3) {
			t.Fatalf("%s failed but changed the node: Len %d, arena rows %d, row 3 deleted %v",
				op, n.Len(), n.store.Rows(), n.deleted.TestAtomic(3))
		}
	}
	_, err = n.Insert(bg, docs[50:])
	untouched("Insert", err)
	untouched("Delete", n.Delete(3))
	untouched("Retire", n.Retire(bg))
}

// TestFailedCheckpointSurfacesInStats: a background checkpoint that cannot
// publish its snapshot — a directory stands where the rename would put it —
// fails into Stats.PersistErr alone. MergeNow still returns nil and later
// writes are still acknowledged; Save is the call that returns the error.
// The journal, never truncated, recovers every row once the directory is
// gone.
func TestFailedCheckpointSurfacesInStats(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir, 1000)
	cfg.AutoMerge = false
	n, err := Open(bg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	docs := testDocs(310, 19)
	if err := os.MkdirAll(filepath.Join(persist.SnapshotPath(dir), "obstacle"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Insert(bg, docs[:300]); err != nil {
		t.Fatal(err)
	}
	if err := n.MergeNow(bg); err != nil {
		t.Fatalf("MergeNow returned %v; a failed checkpoint belongs in Stats.PersistErr", err)
	}
	if pe := n.Stats().PersistErr; !strings.Contains(pe, "publish snapshot") {
		t.Fatalf("PersistErr %q, want the failed publish named", pe)
	}
	if _, err := n.Insert(bg, docs[300:]); err != nil {
		t.Fatalf("insert after a failed checkpoint: %v", err)
	}
	if err := n.Save(bg); err == nil || !strings.Contains(err.Error(), "publish snapshot") {
		t.Fatalf("Save returned %v, want the failed publish", err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(persist.SnapshotPath(dir)); err != nil {
		t.Fatal(err)
	}
	re, err := Open(bg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != len(docs) {
		t.Fatalf("recovered %d of %d rows", re.Len(), len(docs))
	}
	for i := 0; i < len(docs); i += 31 {
		if !neighborIDs(mustQuery(t, re, docs[i]))[uint32(i)] {
			t.Fatalf("recovered row %d does not find itself", i)
		}
	}
}

// TestDurableSnapshotPlusTailRecovery: merges checkpoint snapshots and
// truncate the journal; recovery is snapshot + tail replay, and answers
// stay identical to an in-memory twin.
func TestDurableSnapshotPlusTailRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir, 2000)
	n, err := Open(bg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := Open(bg, testConfig(2000))
	if err != nil {
		t.Fatal(err)
	}
	docs := testDocs(1000, 9)
	// Enough volume to trigger background merges (η·C = 200).
	for off := 0; off < 800; off += 80 {
		for _, tgt := range []*Node{n, oracle} {
			if _, err := tgt.Insert(bg, docs[off:off+80]); err != nil {
				t.Fatal(err)
			}
		}
	}
	mustMerge(t, n)
	mustMerge(t, oracle)
	if _, err := os.Stat(persist.SnapshotPath(dir)); err != nil {
		t.Fatalf("merge did not checkpoint a snapshot: %v", err)
	}
	// A journal tail past the checkpoint, plus deletes on both sides of
	// the static boundary.
	for _, tgt := range []*Node{n, oracle} {
		if _, err := tgt.Insert(bg, docs[800:900]); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []uint32{10, 799, 850} {
		if err := n.Delete(id); err != nil {
			t.Fatal(err)
		}
		if err := oracle.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(bg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 900 {
		t.Fatalf("recovered %d rows, want 900", re.Len())
	}
	if re.StaticLen() < 800 {
		t.Fatalf("snapshot not used: static len %d", re.StaticLen())
	}
	for i := 0; i < 900; i += 11 {
		sameNeighbors(t, "snapshot+tail recovery",
			mustQuery(t, oracle, docs[i]), mustQuery(t, re, docs[i]))
	}
}

// walOp is one acknowledged operation in the truncation property test.
type walOp struct {
	docs []sparse.Vector // insert batch (nil for delete)
	del  uint32
}

// TestWALTruncationProperty is the crash-recovery property test: the
// journal is truncated at every record boundary and at points inside every
// record, and each truncation must recover exactly the acknowledged
// prefix — every fully journaled insert queryable, no torn record loaded,
// never an error.
func TestWALTruncationProperty(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir, 500)
	cfg.AutoMerge = false
	n, err := Open(bg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	docs := testDocs(80, 13)
	var ops []walOp
	base := 0
	for i := 0; i < 8; i++ {
		batch := docs[base : base+5+i]
		if _, err := n.Insert(bg, batch); err != nil {
			t.Fatal(err)
		}
		ops = append(ops, walOp{docs: batch})
		base += len(batch)
		if i%3 == 1 {
			id := uint32(base - 2)
			if err := n.Delete(id); err != nil {
				t.Fatal(err)
			}
			ops = append(ops, walOp{del: id})
		}
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want one journal segment, got %v (%v)", segs, err)
	}
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Frame boundaries, by walking the length prefixes.
	bounds := []int{0}
	for off := 0; off < len(raw); {
		off += 8 + int(binary.LittleEndian.Uint32(raw[off:]))
		bounds = append(bounds, off)
	}
	if len(bounds)-1 != len(ops) {
		t.Fatalf("%d frames for %d ops", len(bounds)-1, len(ops))
	}

	check := func(cut, nComplete int) {
		sub := t.TempDir()
		if err := os.WriteFile(filepath.Join(sub, filepath.Base(segs[0])), raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		subCfg := cfg
		subCfg.Dir = sub
		re, err := Open(bg, subCfg)
		if err != nil {
			t.Fatalf("cut %d: recovery failed: %v", cut, err)
		}
		defer re.Close()
		// Model the acknowledged prefix.
		rows := 0
		deleted := map[uint32]bool{}
		for _, op := range ops[:nComplete] {
			if op.docs != nil {
				rows += len(op.docs)
			} else {
				deleted[op.del] = true
			}
		}
		if re.Len() != rows {
			t.Fatalf("cut %d: recovered %d rows, want %d", cut, re.Len(), rows)
		}
		for id := 0; id < rows; id++ {
			got := neighborIDs(mustQuery(t, re, docs[id]))
			if deleted[uint32(id)] {
				if got[uint32(id)] {
					t.Fatalf("cut %d: deleted doc %d resurrected", cut, id)
				}
			} else if !got[uint32(id)] {
				t.Fatalf("cut %d: acknowledged doc %d not queryable", cut, id)
			}
		}
		// Nothing torn may load.
		for id := rows; id < len(docs); id++ {
			if _, known := re.Doc(uint32(id)); known {
				t.Fatalf("cut %d: torn doc %d loaded", cut, id)
			}
		}
	}

	for i := 1; i < len(bounds); i++ {
		check(bounds[i], i) // exactly i complete records
		// Mid-record cuts: inside the header, just after it, and one byte
		// short of complete — all must load i-1 records and drop the tear.
		for _, cut := range []int{bounds[i-1] + 1, bounds[i-1] + 8, bounds[i] - 1} {
			if cut > bounds[i-1] && cut < bounds[i] {
				check(cut, i-1)
			}
		}
	}
	check(0, 0)
}

// TestBarriersWaitForMergeCheckpoint: Flush, MergeNow and Close are the
// node's "the merge is durable" barriers, so they must cover the window
// between a background merge installing its result (MergeInFlight turns
// false) and its checkpoint reaching the disk. Each round lands in that
// window by polling Stats, then demands that the barrier returns with the
// on-disk snapshot covering every static row, and that an immediate
// Close→Open finds a snapshot and journal that agree — a checkpoint still
// renaming the snapshot and unlinking journal segments under the replay is
// what used to fail it with "insert at row N, expected M".
func TestBarriersWaitForMergeCheckpoint(t *testing.T) {
	const rounds, batch = 24, 500
	dir := t.TempDir()
	cfg := durableConfig(dir, rounds*batch)
	cfg.DeltaFraction = 0.01 // every batch outgrows η·C and starts a merge
	docs := testDocs(rounds*batch, 29)
	for round := 0; round < rounds; round++ {
		n, err := Open(bg, cfg)
		if err != nil {
			t.Fatalf("round %d: reopen: %v", round, err)
		}
		if n.Len() != round*batch {
			t.Fatalf("round %d: recovered %d rows, want %d", round, n.Len(), round*batch)
		}
		if _, err := n.Insert(bg, docs[round*batch:(round+1)*batch]); err != nil {
			t.Fatal(err)
		}
		for n.Stats().MergeInFlight {
			runtime.Gosched()
		}
		barrier := []func() error{
			func() error { return n.Flush(bg) },
			func() error { return n.MergeNow(bg) },
			func() error { return nil }, // Close alone
		}[round%3]
		if err := barrier(); err != nil {
			t.Fatal(err)
		}
		if round%3 != 2 {
			snap, err := persist.ReadSnapshot(dir)
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			if snap.Rows != n.StaticLen() {
				t.Fatalf("round %d: barrier returned with %d rows checkpointed, %d static", round, snap.Rows, n.StaticLen())
			}
		}
		if err := n.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestChainedMergeWaitsForHeldCheckpoint pins the merge pipeline's one
// invariant: one run at a time, and a run ends with its checkpoint. While
// the first merge's checkpoint is held open, inserts that outgrow η·C start
// no second merge and do not rotate the journal again; once it is released
// the chained run starts, and Flush returns only after that run's own
// checkpoint is on disk.
func TestChainedMergeWaitsForHeldCheckpoint(t *testing.T) {
	dir := t.TempDir()
	n, err := Open(bg, durableConfig(dir, 2000)) // η·C = 200
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() }) // after holdMerge's cleanup releases the hold
	docs := testDocs(700, 59)
	journal := func() []string {
		segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
		if err != nil {
			t.Fatal(err)
		}
		return segs
	}
	entered, release := holdMerge(t, n, &testHookCheckpoint)
	if _, err := n.Insert(bg, docs[:250]); err != nil { // starts merge 1
		t.Fatal(err)
	}
	awaitEntered(t, entered, "the first merge's checkpoint")
	rotated := journal()
	for at := 250; at < 700; at += 50 { // 450 rows: a chained merge is due
		if _, err := n.Insert(bg, docs[at:at+50]); err != nil {
			t.Fatal(err)
		}
	}
	if st := n.Stats(); st.Merges != 1 || st.StaticLen != 250 || !st.MergeInFlight || st.MergePendingRows != 0 {
		t.Fatalf("behind the held checkpoint: %+v, want merge 1 installed and still in flight, no second merge", st)
	}
	if segs := journal(); !slices.Equal(segs, rotated) {
		t.Fatalf("the journal rotated behind the held checkpoint: %v, was %v", segs, rotated)
	}
	release()
	if err := n.Flush(bg); err != nil {
		t.Fatal(err)
	}
	snap, err := persist.ReadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st := n.Stats(); snap.Rows != 700 || st.StaticLen != 700 || st.Merges != 2 || st.MergeInFlight || st.PersistErr != "" {
		t.Fatalf("Flush returned with %d rows checkpointed and %+v, want the chained run's 700", snap.Rows, st)
	}
}

// TestSaveCheckpointTruncatesJournal: an explicit Save must leave a
// snapshot covering everything and drop the sealed journal segments. So
// must SaveTo naming the node's own directory, under another spelling.
func TestSaveCheckpointTruncatesJournal(t *testing.T) {
	for _, tc := range []struct {
		name string
		save func(n *Node, dir string) error
	}{
		{"Save", func(n *Node, _ string) error { return n.Save(bg) }},
		{"SaveTo", func(n *Node, dir string) error { return n.SaveTo(bg, dir+string(filepath.Separator)+".") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := durableConfig(dir, 500)
			cfg.AutoMerge = false
			n, err := Open(bg, cfg)
			if err != nil {
				t.Fatal(err)
			}
			docs := testDocs(120, 21)
			for off := 0; off < len(docs); off += 40 {
				if _, err := n.Insert(bg, docs[off:off+40]); err != nil {
					t.Fatal(err)
				}
			}
			if err := n.Delete(7); err != nil {
				t.Fatal(err)
			}
			if err := tc.save(n, dir); err != nil {
				t.Fatal(err)
			}
			if st := n.Stats(); st.PersistErr != "" {
				t.Fatalf("persist error: %s", st.PersistErr)
			}
			segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
			if len(segs) != 1 {
				t.Fatalf("journal not truncated: %v", segs)
			}
			if fi, err := os.Stat(segs[0]); err != nil || fi.Size() != 0 {
				t.Fatalf("live segment not empty after %s: %v (%v)", tc.name, fi, err)
			}
			if err := n.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := Open(bg, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if re.Len() != 120 || re.StaticLen() != 120 {
				t.Fatalf("recovered %d/%d rows", re.StaticLen(), re.Len())
			}
			if got := neighborIDs(mustQuery(t, re, docs[7])); got[7] {
				t.Fatalf("tombstone lost across %s", tc.name)
			}
		})
	}
}

// TestDurableRetireNoResurrection: retirement is durable — a reopened
// node holds only post-retirement documents.
func TestDurableRetireNoResurrection(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir, 500)
	n, err := Open(bg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	docs := testDocs(80, 31)
	if _, err := n.Insert(bg, docs[:50]); err != nil {
		t.Fatal(err)
	}
	if err := n.Retire(bg); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Insert(bg, docs[50:]); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(bg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 30 {
		t.Fatalf("recovered %d rows, want 30 post-retire docs", re.Len())
	}
	got := neighborIDs(mustQuery(t, re, docs[50]))
	if !got[0] {
		t.Fatal("post-retire doc 0 not found")
	}
	for _, nb := range mustQuery(t, re, docs[0]) {
		if v, known := re.Doc(nb.ID); !known || v.NNZ() == 0 {
			t.Fatalf("neighbor %d has no document", nb.ID)
		}
	}
}

// TestSaveToExportRoundTrip: SaveTo writes a portable snapshot a fresh
// node opens with bit-identical query behavior.
func TestSaveToExportRoundTrip(t *testing.T) {
	n, err := Open(bg, testConfig(500)) // in-memory node
	if err != nil {
		t.Fatal(err)
	}
	docs := testDocs(200, 41)
	if _, err := n.Insert(bg, docs); err != nil {
		t.Fatal(err)
	}
	if err := n.Delete(13); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := n.SaveTo(bg, dir); err != nil {
		t.Fatal(err)
	}
	re, err := Open(bg, durableConfig(dir, 500))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for i := 0; i < len(docs); i += 5 {
		sameNeighbors(t, "export round-trip",
			mustQuery(t, n, docs[i]), mustQuery(t, re, docs[i]))
	}
}

// TestOpenRejectsParamMismatch: a snapshot written under different hash
// parameters must be refused, not loaded as garbage.
func TestOpenRejectsParamMismatch(t *testing.T) {
	dir := t.TempDir()
	n, err := Open(bg, durableConfig(dir, 500))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Insert(bg, testDocs(50, 51)); err != nil {
		t.Fatal(err)
	}
	if err := n.Save(bg); err != nil {
		t.Fatal(err)
	}
	n.Close()
	bad := durableConfig(dir, 500)
	bad.Params.Seed = 999
	if _, err := Open(bg, bad); err == nil {
		t.Fatal("param mismatch accepted")
	}
}

// TestOpenRejectsCorruptSnapshot: any bit flip in the snapshot fails the
// checksum and the open.
func TestOpenRejectsCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir, 500)
	n, err := Open(bg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Insert(bg, testDocs(50, 61)); err != nil {
		t.Fatal(err)
	}
	if err := n.Save(bg); err != nil {
		t.Fatal(err)
	}
	n.Close()
	path := persist.SnapshotPath(dir)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 1
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(bg, cfg); !errors.Is(err, persist.ErrCorrupt) {
		t.Fatalf("corrupt snapshot: want ErrCorrupt, got %v", err)
	}
}

// TestDeleteNeverInserted: the ErrNotFound satellite at the node layer.
func TestDeleteNeverInserted(t *testing.T) {
	n, err := Open(bg, testConfig(100))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Insert(bg, testDocs(10, 71)); err != nil {
		t.Fatal(err)
	}
	if err := n.Delete(5); err != nil {
		t.Fatalf("valid delete: %v", err)
	}
	if err := n.Delete(10); !errors.Is(err, ErrNotFound) {
		t.Fatalf("out-of-range delete: want ErrNotFound, got %v", err)
	}
	if err := n.Delete(math.MaxUint32); !errors.Is(err, ErrNotFound) {
		t.Fatalf("huge delete: want ErrNotFound, got %v", err)
	}
	// Durable path agrees.
	d, err := Open(bg, durableConfig(t.TempDir(), 100))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Delete(0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("durable out-of-range delete: want ErrNotFound, got %v", err)
	}
}

// TestDocOutOfRange: the Doc-panic satellite at the node layer.
func TestDocOutOfRange(t *testing.T) {
	n, err := Open(bg, testConfig(100))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Insert(bg, testDocs(10, 81)); err != nil {
		t.Fatal(err)
	}
	if v, known := n.Doc(9); !known || v.NNZ() == 0 {
		t.Fatal("valid doc came back empty")
	}
	if v, known := n.Doc(10); known || v.NNZ() != 0 {
		t.Fatal("out-of-range doc not zero")
	}
	if v, known := n.Doc(math.MaxUint32); known || v.NNZ() != 0 {
		t.Fatal("huge id doc not zero")
	}
	if err := n.Save(bg); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("Save on in-memory node: want ErrNotDurable, got %v", err)
	}
}

// TestReadsVersion4Snapshot: a data directory holding the committed 60-row
// version-4 or version-5 fixture of internal/persist/testdata, whose tables
// an older hash family hashed, opens with its tables built over its arena
// under this family, answers every query as internal/oracle does over the
// same live rows, and its next checkpoint writes the committed version-6
// fixture byte for byte.
func TestReadsVersion4Snapshot(t *testing.T) {
	want := persistFixture(t, "snapshot-v6.plsh")
	for version, name := range map[uint32]string{4: "snapshot-v4.plsh", 5: "snapshot-v5.plsh"} {
		old := persistFixture(t, name)
		if v := binary.LittleEndian.Uint32(old[8:]); v != version {
			t.Fatalf("%s is version %d", name, v)
		}
		n, o, docs := openOldFixture(t, name)
		requireMatchesOracle(t, name+" opened", n, o, docs)

		if err := n.Save(bg); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(persist.SnapshotPath(n.cfg.Dir))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, want) {
			t.Fatalf("the checkpoint of testdata/%s is not testdata/snapshot-v6.plsh", name)
		}
	}
}

// TestVersion4SnapshotMergesPastAPowerOfTwo: the committed version-4 and
// version-5 fixtures hold 60 rows, whose tables the node builds on open at
// the key bits core.DirectoryBits gives 60 rows. Opened, grown past 64
// rows with a tombstone among the new ones, and merged, each answers every
// query as internal/oracle does over the same live rows.
func TestVersion4SnapshotMergesPastAPowerOfTwo(t *testing.T) {
	for _, name := range []string{"snapshot-v4.plsh", "snapshot-v5.plsh"} {
		n, o, docs := openOldFixture(t, name)
		more := corpus.Generate(corpus.Twitter(40, n.cfg.Params.Dim, 9)).Mat
		for i := range more.Rows() {
			docs = append(docs, more.Row(i))
		}
		if _, err := n.Insert(bg, docs[60:]); err != nil {
			t.Fatal(err)
		}
		o.Add(docs[60:]...)
		if err := n.Delete(70); err != nil {
			t.Fatal(err)
		}
		o.Delete(70)
		mustMerge(t, n)
		if n.StaticLen() != len(docs) {
			t.Fatalf("%s: %d static rows after the merge, want %d", name, n.StaticLen(), len(docs))
		}
		requireMatchesOracle(t, name+" merged past 64 rows", n, o, docs)
	}
}

// openOldFixture opens a durable node over a copy of the committed 60-row
// snapshot name and returns it with an oracle over its live rows and its
// documents. The node is closed when the test ends.
func openOldFixture(t *testing.T, name string) (*Node, *oracle.Oracle, []sparse.Vector) {
	t.Helper()
	cfg := fixtureConfig()
	cfg.Dir = t.TempDir()
	if err := os.WriteFile(persist.SnapshotPath(cfg.Dir), persistFixture(t, name), 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := Open(bg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	if n.Len() != 60 || n.StaticLen() != 60 {
		t.Fatalf("%s: opened %d rows, %d static; the fixture holds 60", name, n.Len(), n.StaticLen())
	}
	docs := make([]sparse.Vector, n.Len())
	for i := range docs {
		docs[i], _ = n.Doc(uint32(i))
	}
	o := oracle.New(n.fam, docs...)
	for _, id := range []uint32{7, 41} { // the fixture's tombstones
		o.Delete(id)
	}
	return n, o, docs
}

// TestOpenRefusesVersion3Snapshot: a data directory holding the committed
// version-3 fixture, whose tables carry no key bits, does not open: Open
// returns ErrCorrupt and no node.
func TestOpenRefusesVersion3Snapshot(t *testing.T) {
	cfg := fixtureConfig()
	cfg.Dir = t.TempDir()
	if err := os.WriteFile(persist.SnapshotPath(cfg.Dir), persistFixture(t, "snapshot-v3.plsh"), 0o644); err != nil {
		t.Fatal(err)
	}
	if n, err := Open(bg, cfg); n != nil || !errors.Is(err, persist.ErrCorrupt) {
		t.Fatalf("Open over a version-3 snapshot: node returned %v, err %v; want no node and ErrCorrupt", n != nil, err)
	}
}

// persistFixture returns the committed snapshot file name of
// internal/persist/testdata.
func persistFixture(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "persist", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// fixtureConfig is the in-memory configuration the committed snapshots were
// written under.
func fixtureConfig() Config {
	cfg := testConfig(128)
	cfg.Params = lshhash.Params{Dim: 256, K: 6, M: 4, Seed: 21}
	cfg.AutoMerge = false
	return cfg
}

// TestSnapshotRoundTripAtSuiteGeometry: a node of the benchmark suite's
// geometry (K 16, M 16: 120 tables over the tweet corpus), with tombstones,
// at a fleet node's 8 000 rows and static_query's 32 000, goes through Save
// and Open into a node that answers every query as it did and reports the
// same Stats.MemoryBytes — which a reader that sliced every table's arrays
// out of one shared buffer would over-report.
func TestSnapshotRoundTripAtSuiteGeometry(t *testing.T) {
	rows := []int{8000, 32000}
	if testing.Short() || israce.Enabled {
		rows = rows[:1]
	}
	const queries = 1000
	for _, nRows := range rows {
		t.Run(fmt.Sprint(nRows), func(t *testing.T) {
			cfg := durableConfig(t.TempDir(), nRows)
			cfg.Params = lshhash.Params{Dim: 50000, K: 16, M: 16, Seed: 1}
			cfg.AutoMerge = false
			c := corpus.Generate(corpus.Twitter(nRows+queries, cfg.Params.Dim, 1))
			docs := make([]sparse.Vector, nRows)
			for i := range docs {
				docs[i] = c.Mat.Row(i)
			}
			n, err := Open(bg, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := n.Insert(bg, docs); err != nil {
				t.Fatal(err)
			}
			for id := 0; id < nRows; id += 97 {
				if err := n.Delete(uint32(id)); err != nil {
					t.Fatal(err)
				}
			}
			if err := n.Save(bg); err != nil {
				t.Fatal(err)
			}
			before := make([][]core.Neighbor, queries)
			answers := 0
			for i := range before {
				before[i] = mustQuery(t, n, c.Mat.Row(nRows-queries/2+i)) // half stored rows, half fresh
				answers += len(before[i])
			}
			if answers < queries/2-queries/97-1 {
				t.Fatalf("%d answers to %d queries, half of them stored rows", answers, queries)
			}
			mem := n.Stats().MemoryBytes
			if err := n.Close(); err != nil {
				t.Fatal(err)
			}

			re, err := Open(bg, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if re.StaticLen() != nRows || re.DeltaLen() != 0 {
				t.Fatalf("reopened %d static + %d delta rows, want %d + 0", re.StaticLen(), re.DeltaLen(), nRows)
			}
			if got := re.Stats().MemoryBytes; got != mem {
				t.Fatalf("MemoryBytes %d after Save → Open, %d before", got, mem)
			}
			for i, want := range before {
				sameNeighbors(t, fmt.Sprintf("query %d", i), want, mustQuery(t, re, c.Mat.Row(nRows-queries/2+i)))
			}
		})
	}
}

// TestReplayedDeltaMergesLikeARebuild: a recovered node's delta is the
// segments journal replay built, its static index the tables the snapshot
// held — neither came out of this process's own merges. Merging one into
// the other yields the rebuild's buckets; the snapshot that merge
// checkpoints re-opens into the same index, with nothing left to replay; and
// every stage answers like an in-memory node that bulk-merged the same rows
// in one go.
func TestReplayedDeltaMergesLikeARebuild(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir, 3000)
	cfg.AutoMerge = false
	docs := testDocs(1500, 61)
	dead := []uint32{4, 333, 599, 600, 1010, 1499}

	oracle, err := Open(bg, testConfig(3000))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := oracle.Insert(bg, docs); err != nil {
		t.Fatal(err)
	}
	for _, id := range dead {
		if err := oracle.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	mustMerge(t, oracle)
	sameAsOracle := func(what string, n *Node) {
		t.Helper()
		for i := 0; i < len(docs); i += 13 {
			sameNeighbors(t, what, mustQuery(t, oracle, docs[i]), mustQuery(t, n, docs[i]))
		}
	}

	n, err := Open(bg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Insert(bg, docs[:600]); err != nil {
		t.Fatal(err)
	}
	mustMerge(t, n) // checkpoint: 600 rows of tables on disk
	for at := 600; at < 1500; at += 45 {
		if _, err := n.Insert(bg, docs[at:at+45]); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range dead {
		if err := n.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(bg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if re.StaticLen() != 600 || re.DeltaLen() != 900 {
		t.Fatalf("recovered split %d/%d, want 600/900", re.StaticLen(), re.DeltaLen())
	}
	sameAsOracle("recovered, unmerged", re)
	mustMerge(t, re)
	requireStaticMatchesRebuild(t, "replayed delta into loaded tables", re, re.deleted)
	sameAsOracle("recovered, merged", re)
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}

	again, err := Open(bg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if again.StaticLen() != 1500 || again.DeltaLen() != 0 {
		t.Fatalf("re-opened split %d/%d, want 1500/0", again.StaticLen(), again.DeltaLen())
	}
	requireStaticMatchesRebuild(t, "snapshot of a merged index", again, again.deleted)
	sameAsOracle("re-opened", again)
}
