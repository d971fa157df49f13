package persist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"plsh/internal/codec"
	"plsh/internal/histo"
	"plsh/internal/sparse"
)

// The write-ahead journal records every acknowledged write between
// checkpoints. It is a sequence of numbered segment files (wal-NNNNNNNN.log)
// of length-prefixed, CRC-framed records:
//
//	u32 payload length | u32 CRC-32C(payload) | payload
//
// A record is acknowledged-durable once its frame is written: appends go
// to the file in one write() call, so a killed process loses at most the
// un-acknowledged tail (SyncWrites additionally fsyncs each append for
// machine-crash durability). A failed append marks the live segment
// broken — its tail may hold a torn frame, and nothing further may be
// acknowledged behind one — until a rotation opens a clean segment.
// Replay reads segments in order; a torn frame ends its segment (it is
// some boot's unacknowledged tail — a crash→recover→crash history
// legitimately leaves torn tails mid-sequence) and replay continues with
// the next segment, so the records delivered are exactly the
// acknowledged history.
//
// Segments exist so checkpoints can truncate the journal without touching
// the live append file: Rotate (called with the node quiescent at a merge
// boundary) seals the current segment and opens the next one, returning
// its sequence number as a token; Checkpoint then writes the snapshot and
// deletes every segment older than the token. The caller guarantees the
// rotation invariant that makes this safe: at Rotate time, every record in
// older segments is covered by the snapshot the token's checkpoint will
// write.

// RecordKind enumerates journal record types. A record's payload is its
// kind byte and then:
//
//	RecordInsert  base u64, the batch as internal/codec's vectors block —
//	              the bytes the wire's opInsert frame carries it in
//	RecordDelete  id u32
//	RecordRetire  nothing
//
// Kind 1 was an insert in an earlier layout (a u32 count, then each
// document as its nnz u32, indexes and values). Replay refuses it as
// corruption rather than misread it: Save before swapping the binary of a
// durable node, and the journal it recovers from is empty.
type RecordKind uint8

const (
	// RecordDelete is an acknowledged tombstone.
	RecordDelete RecordKind = 2
	// RecordRetire marks a node erasure (rolling-window expiration):
	// replay resets to empty before applying later records.
	RecordRetire RecordKind = 3
	// RecordInsert is an acknowledged batch insert at a known arena base.
	RecordInsert RecordKind = 4
)

// Record is one replayed journal entry.
type Record struct {
	Kind RecordKind
	// Base is the arena row of the first document in an insert batch.
	Base int
	// Docs are an insert batch's documents.
	Docs []sparse.Vector
	// ID is a delete's target row.
	ID uint32
}

// maxRecordLen bounds a single record frame: the append side refuses
// larger records (before building them), and the replay side treats a
// larger length field as corruption rather than sizing an allocation
// from it. A var only so tests can exercise the limit without gigabyte
// allocations.
var maxRecordLen = 1 << 30

// testHookCheckpoint, when non-nil, runs inside Checkpoint with the
// checkpoint lock held, just before the snapshot is written. Tests use it to
// hold a checkpoint open; production code never sets it.
var testHookCheckpoint func()

// errWALClosed is returned by appends after Close.
var errWALClosed = errors.New("persist: journal closed")

// WAL is the append side of the journal. Appends, rotation, and
// truncation serialize on an internal mutex; Checkpoint serializes on its
// own so a slow snapshot write never blocks appends.
type WAL struct {
	dir  string
	sync bool

	mu  sync.Mutex
	f   *os.File
	seq int
	buf []byte
	// broken records the first append failure on the live segment. A
	// failed write may leave a torn frame mid-segment, and replay treats
	// a tear as the end of that segment — so no further append may land
	// behind it. Appends fail until a successful Rotate opens a clean
	// segment (merges and Save rotate, so a durable node heals on its
	// next checkpoint).
	broken error

	cpMu    sync.Mutex
	cpToken int // highest token whose checkpoint has been written

	// appendHist and syncHist track per-record write and fsync latency —
	// the server-side cause behind most acknowledged-write tail latency,
	// surfaced through node.Stats for soak reports. Recording is two
	// atomic adds per append; quantile reads are lock-free.
	appendHist, syncHist histo.Histogram
}

// OpenWAL opens dir's journal for appending, creating a fresh segment
// after any existing ones (existing segments are never appended to — their
// tails may be torn). Call ReplayWAL first to recover their contents.
func OpenWAL(dir string, syncWrites bool) (*WAL, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	seqs, err := walSegments(dir)
	if err != nil {
		return nil, err
	}
	next := 1
	if len(seqs) > 0 {
		next = seqs[len(seqs)-1] + 1
	}
	w := &WAL{dir: dir, sync: syncWrites, buf: make([]byte, 0, 1<<12)}
	if err := w.openSegmentLocked(next); err != nil {
		return nil, err
	}
	return w, nil
}

func segmentPath(dir string, seq int) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%08d.log", seq))
}

// walSegments lists dir's segment sequence numbers, ascending.
func walSegments(dir string) ([]int, error) {
	ents, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	var seqs []int
	for _, e := range ents {
		var seq int
		if n, _ := fmt.Sscanf(e.Name(), "wal-%d.log", &seq); n == 1 && e.Name() == fmt.Sprintf("wal-%08d.log", seq) {
			seqs = append(seqs, seq)
		}
	}
	sort.Ints(seqs)
	return seqs, nil
}

func (w *WAL) openSegmentLocked(seq int) error {
	f, err := os.OpenFile(segmentPath(w.dir, seq), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("persist: open journal segment: %w", err)
	}
	w.f, w.seq = f, seq
	syncDir(w.dir)
	return nil
}

// maxRetainedBuf bounds the append buffer kept between records, so one
// huge batch does not pin its encoded size for the WAL's lifetime.
const maxRetainedBuf = 1 << 20

// appendFrame frames payload (already in w.buf[8:]) and writes it in one
// call. Callers hold mu and have built w.buf as 8 header bytes + payload.
func (w *WAL) appendFrameLocked() error {
	if w.f == nil {
		return errWALClosed
	}
	if w.broken != nil {
		return fmt.Errorf("persist: journal segment broken by earlier append failure: %w", w.broken)
	}
	payload := w.buf[8:]
	if len(payload) > maxRecordLen {
		// Replay would classify an over-limit frame as corruption; refuse
		// it up front so the write is never acknowledged.
		return fmt.Errorf("persist: journal record encodes to %d bytes, over the %d frame limit (split the batch)",
			len(payload), maxRecordLen)
	}
	binary.LittleEndian.PutUint32(w.buf[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(w.buf[4:], crc32.Checksum(payload, castagnoli))
	defer func() {
		if cap(w.buf) > maxRetainedBuf {
			w.buf = make([]byte, 0, 1<<12)
		}
	}()
	t0 := time.Now()
	if _, err := w.f.Write(w.buf); err != nil {
		w.broken = err
		return fmt.Errorf("persist: journal append: %w", err)
	}
	w.appendHist.Record(time.Since(t0))
	if w.sync {
		t1 := time.Now()
		if err := w.f.Sync(); err != nil {
			w.broken = err
			return fmt.Errorf("persist: journal sync: %w", err)
		}
		w.syncHist.Record(time.Since(t1))
	}
	return nil
}

// WriteQuantile returns an upper bound for the q-quantile of per-record
// segment-write latency over the WAL's lifetime; 0 before any append.
func (w *WAL) WriteQuantile(q float64) time.Duration { return w.appendHist.Quantile(q) }

// SyncQuantile is WriteQuantile for the per-record fsync; always 0 on a
// WAL opened without SyncWrites.
func (w *WAL) SyncQuantile(q float64) time.Duration { return w.syncHist.Quantile(q) }

// AppendInsert journals an acknowledged insert batch landing at arena row
// base. It must complete before the insert is acknowledged to the caller.
// A batch whose encoding may exceed the frame limit (codec.VectorsBound
// says) is refused before anything is built or written — the caller must
// split it.
func (w *WAL) AppendInsert(base int, vs []sparse.Vector) error {
	if size := 1 + 8 + codec.VectorsBound(vs); size > maxRecordLen {
		return fmt.Errorf("persist: insert batch may encode to %d bytes, over the %d journal frame limit (split the batch)",
			size, maxRecordLen)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	b := append(w.buf[:8], byte(RecordInsert))
	b = binary.LittleEndian.AppendUint64(b, uint64(base))
	w.buf = codec.AppendVectors(b, vs)
	return w.appendFrameLocked()
}

// AppendDelete journals an acknowledged tombstone.
func (w *WAL) AppendDelete(id uint32) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	b := w.buf[:8]
	b = append(b, byte(RecordDelete))
	b = binary.LittleEndian.AppendUint32(b, id)
	w.buf = b
	return w.appendFrameLocked()
}

// AppendRetire journals a node erasure.
func (w *WAL) AppendRetire() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf = append(w.buf[:8], byte(RecordRetire))
	return w.appendFrameLocked()
}

// Rotate seals the current segment and opens the next, returning its
// sequence number as the checkpoint token. The caller must hold the
// node-level invariant: every record already journaled is covered by the
// snapshot that Checkpoint(token) will later write.
func (w *WAL) Rotate() (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return 0, errWALClosed
	}
	// A broken segment's close is best-effort: its handle may already be
	// unusable, and healing requires the fresh segment either way.
	if err := w.f.Close(); err != nil && w.broken == nil {
		return 0, fmt.Errorf("persist: seal journal segment: %w", err)
	}
	w.f = nil
	if err := w.openSegmentLocked(w.seq + 1); err != nil {
		return 0, err
	}
	w.broken = nil // a fresh segment has no torn frame to append behind
	return w.seq, nil
}

// Checkpoint durably writes s and then deletes every segment older than
// token (obtained from the Rotate that froze those segments' contents
// into s). Checkpoints serialize, and a stale one — its token older than
// one already checkpointed — is skipped entirely, so the snapshot on disk
// never regresses to cover fewer rows than the journal assumes. A node
// checkpoints one merge run at a time and never hands in a stale one; the
// guard is for a caller that would.
func (w *WAL) Checkpoint(s *Snapshot, token int) error {
	w.cpMu.Lock()
	defer w.cpMu.Unlock()
	if token <= w.cpToken {
		return nil // a newer checkpoint already covers this state
	}
	if h := testHookCheckpoint; h != nil {
		h()
	}
	if err := WriteSnapshot(w.dir, s); err != nil {
		return err
	}
	w.cpToken = token
	var first error
	seqs, err := walSegments(w.dir)
	if err != nil {
		return err
	}
	for _, seq := range seqs {
		if seq >= token {
			break
		}
		if err := os.Remove(segmentPath(w.dir, seq)); err != nil && first == nil {
			first = fmt.Errorf("persist: truncate journal: %w", err)
		}
	}
	return first
}

// Close seals the journal; further appends fail.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}

// ReplayWAL streams dir's journaled records, oldest first, into fn. A
// torn frame (a partially written tail: short header, short payload, or
// CRC mismatch) ends its segment — nothing acknowledged ever lands
// behind a tear, because appends fail after a partial write until the
// journal rotates — but replay continues with the next segment: a torn
// mid-sequence segment is normal after a crash→recover→crash history,
// where a new boot's segment follows an older torn tail. fn returning an
// error aborts the replay with that error. A frame that passes its CRC
// but does not decode is corruption, not a tear, and is reported as an
// error.
func ReplayWAL(dir string, fn func(*Record) error) error {
	seqs, err := walSegments(dir)
	if err != nil {
		return err
	}
	for _, seq := range seqs {
		if err := replaySegment(segmentPath(dir, seq), fn); err != nil {
			return err
		}
	}
	return nil
}

// replaySegment replays one segment's complete frames; a torn frame ends
// the segment silently (it is the unacknowledged tail of some boot's
// live segment).
func replaySegment(path string, fn func(*Record) error) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	defer f.Close() // read-only; a close error carries no data-loss signal
	st, err := f.Stat()
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	left := st.Size() // bytes of the segment not yet consumed
	r := bufio.NewReaderSize(f, 1<<16)
	var hdr [8]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return nil // clean end of segment, or a torn header
		}
		left -= int64(len(hdr))
		n := binary.LittleEndian.Uint32(hdr[0:])
		want := binary.LittleEndian.Uint32(hdr[4:])
		if int(n) > maxRecordLen || int64(n) > left {
			// A length field from a torn/garbage frame: no acknowledged
			// frame is longer than the limit, or than the file that holds
			// it — so the payload buffer is never sized past the file.
			return nil
		}
		left -= int64(n)
		if cap(payload) < int(n) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(r, payload); err != nil {
			return nil
		}
		if crc32.Checksum(payload, castagnoli) != want {
			return nil
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			return fmt.Errorf("persist: %s: %w", filepath.Base(path), err)
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
}

var errMalformed = fmt.Errorf("%w: malformed journal record", ErrCorrupt)

// decodeRecord parses one CRC-verified payload.
func decodeRecord(p []byte) (*Record, error) {
	d := codec.NewDecoder(p, errMalformed)
	rec := &Record{Kind: RecordKind(d.U8("kind"))}
	switch rec.Kind {
	case RecordInsert:
		if rec.Base = int(d.U64("base")); rec.Base < 0 {
			d.Fail("negative base %d", rec.Base)
		}
		rec.Docs = d.Vectors()
	case RecordDelete:
		rec.ID = d.U32("id")
	case RecordRetire:
	case 1:
		d.Fail("record kind 1, an insert in the layout before the vectors block")
	default:
		d.Fail("unknown record kind %d", rec.Kind)
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return rec, nil
}
