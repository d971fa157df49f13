// Package persist is the node durability subsystem: checkpointed
// snapshots plus a write-ahead journal, the two halves of the classic
// recovery contract.
//
// The paper's 100-node cluster (§8) holds everything in RAM, so a node
// restart silently loses its ~10.5M documents. This package makes a node
// durable without touching the hot read path:
//
//   - A snapshot is the serialized image of a fully merged node — the
//     document arena (CSR), the static PLSH buckets, the tombstone
//     bitvector, and the hash-family parameters — behind a versioned
//     header and a whole-file CRC. It is exactly the immutable state a
//     copy-on-write publish produces, so writing one needs no locks and
//     loading one needs no rehashing: each table is stored as core.Table
//     encodes itself, its arrays as it holds them in memory, and goes
//     straight back into a core.Static. This package knows nothing of a
//     table's layout.
//   - The WAL (wal.go) journals every acknowledged Insert/Delete between
//     checkpoints; replaying it on top of the latest snapshot recovers
//     every acknowledged write after a crash.
//
// Snapshots are written to a temporary file and atomically renamed, so a
// crash mid-checkpoint leaves the previous snapshot intact. Readers verify
// the magic, version, CRC, and structural shape (via sparse.FromRaw,
// core.DecodeTable and core.ValidateTables) and refuse to load anything
// that fails — a corrupt file is an error, never garbage in the index. The
// version written is the one read; the two before it, whose tables an
// older hash family hashed, are read without their tables; a file of any
// other version is refused with its version named.
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
	"slices"

	"plsh/internal/codec"
	"plsh/internal/core"
	"plsh/internal/lshhash"
	"plsh/internal/sparse"
)

// snapshotName is the snapshot's filename within a node's data directory.
const snapshotName = "snapshot.plsh"

// snapshotMagic identifies a plsh snapshot file; the trailing byte is the
// format generation (bumped only for incompatible layout changes — the
// version field below covers compatible evolution).
var snapshotMagic = [8]byte{'P', 'L', 'S', 'H', 'S', 'N', 'P', '1'}

// snapshotVersion is the format version WriteSnapshot emits: version 6
// stores each table as a byte length and core.Table.AppendEncoded's bytes —
// the key bits its items carry, then the directory's 64-bucket blocks and
// the packed items verbatim — and ReadSnapshot hands those bytes to
// core.DecodeTable. What a table holds is ValidateTables' to judge, after
// the CRC. The tables are the hash family's: version 6 is version 5's
// layout over tables hashed by the family of one-byte coefficients
// (lshhash.Family). ReadSnapshot still loads versions 4 and 5, whose tables
// an older family hashed, without them: their bytes are read under the CRC
// and dropped, and the node that opens the file rebuilds its tables from
// the arena and writes version 6 at its next checkpoint. Every other
// version, version 3 included, is ErrCorrupt naming it.
const snapshotVersion = 6

// castagnoli is the CRC-32C table used for both snapshot and WAL framing.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrNoSnapshot reports that a data directory holds no snapshot — a fresh
// node, or one that has only journaled so far.
var ErrNoSnapshot = errors.New("persist: no snapshot")

// ErrCorrupt wraps every integrity failure (bad magic, checksum mismatch,
// impossible lengths): the file exists but must not be loaded.
var ErrCorrupt = errors.New("persist: corrupt snapshot")

// Snapshot is the durable image of a fully merged node: every document is
// covered by the static index, so no delta segments need serializing.
type Snapshot struct {
	// Params is the hash family the static tables were built under; a node
	// opening the snapshot must be configured identically, or the bucket
	// contents would be meaningless.
	Params lshhash.Params
	// Capacity is the node capacity at save time (recorded for
	// diagnostics; an opening node may use a larger capacity).
	Capacity int
	// Rows is the number of documents covered: arena rows, static length,
	// and the tombstone bit range all equal it.
	Rows int
	// Arena holds the documents, rows [0, Rows).
	Arena *sparse.Matrix
	// Tables are the static PLSH buckets over the arena. Empty when
	// Rows == 0 (rebuilding an empty index is cheaper than serializing
	// L empty directories), and when the file predates the hash family
	// (versions 4 and 5): the opener builds them over the arena.
	Tables []core.Table
	// Deleted is the tombstone bitvector's backing words, trimmed to
	// ⌈Rows/64⌉ words with bits ≥ Rows masked off.
	Deleted []uint64
}

// SnapshotPath returns where WriteSnapshot places the snapshot within dir
// (exposed for tests and tooling that size or corrupt it).
func SnapshotPath(dir string) string { return filepath.Join(dir, snapshotName) }

// WriteSnapshot serializes s into dir atomically: the bytes go to a
// temporary file that is fsynced and renamed over any previous snapshot,
// so a crash at any point leaves either the old image or the new one,
// never a torn mix.
func WriteSnapshot(dir string, s *Snapshot) (err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	tmp, err := os.CreateTemp(dir, snapshotName+".tmp-*")
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	// CreateTemp defaults to 0600; match the journal segments' mode.
	// Best-effort: a mode mismatch is cosmetic, the bytes are what count.
	_ = tmp.Chmod(0o644)
	defer func() {
		if err != nil {
			// Cleanup of a write that already failed; the original error
			// is the one worth reporting.
			_ = tmp.Close()
			_ = os.Remove(tmp.Name())
		}
	}()
	w := newCRCWriter(tmp)
	w.bytes(snapshotMagic[:])
	w.u32(snapshotVersion)
	w.u32(uint32(s.Params.Dim))
	w.u32(uint32(s.Params.K))
	w.u32(uint32(s.Params.M))
	w.u64(s.Params.Seed)
	w.u64(uint64(s.Capacity))
	w.u64(uint64(s.Rows))

	offs, cols, vals := s.Arena.Raw()
	w.u64(uint64(len(cols)))
	writeWords(w, offs)
	writeWords(w, cols)
	writeWords(w, vals)

	w.u32(uint32(len(s.Tables)))
	var enc []byte // each table's encoding in turn
	for i := range s.Tables {
		enc = s.Tables[i].AppendEncoded(enc[:0])
		w.u64(uint64(len(enc)))
		w.bytes(enc)
	}

	w.u64(uint64(len(s.Deleted)))
	writeWords(w, s.Deleted)

	if err := w.finish(); err != nil {
		return fmt.Errorf("persist: write snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close() // already failing; report the sync error
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("persist: sync snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmp.Name()) // already failing; report the close error
		return fmt.Errorf("persist: close snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), SnapshotPath(dir)); err != nil {
		_ = os.Remove(tmp.Name()) // already failing; report the rename error
		return fmt.Errorf("persist: publish snapshot: %w", err)
	}
	syncDir(dir)
	return nil
}

// ReadSnapshot loads and verifies dir's snapshot. It returns ErrNoSnapshot
// when none exists and an ErrCorrupt-wrapped error when the file fails any
// integrity check — magic, version, CRC, or structural shape.
func ReadSnapshot(dir string) (*Snapshot, error) {
	f, err := os.Open(SnapshotPath(dir))
	if errors.Is(err, os.ErrNotExist) {
		return nil, ErrNoSnapshot
	}
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	defer f.Close() // read-only; a close error carries no data-loss signal
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	return readSnapshot(f, fi.Size())
}

// readSnapshot decodes a snapshot of size bytes from r. Every section
// length is checked against the bytes left before anything is allocated for
// it, so a decode allocates in proportion to size whatever the bytes say,
// and everything it returns has passed sparse.FromRaw and
// core.ValidateTables: the error is ErrCorrupt-wrapped or the snapshot
// loads.
func readSnapshot(src io.Reader, size int64) (*Snapshot, error) {
	r := newCRCReader(src, size)

	var magic [8]byte
	r.bytes(magic[:])
	if r.err == nil && magic != snapshotMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	version := r.u32()
	drop := version == 4 || version == 5 // tables an older hash family hashed
	if r.err == nil && version != snapshotVersion && !drop {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, version)
	}
	s := &Snapshot{}
	s.Params.Dim = int(r.u32())
	s.Params.K = int(r.u32())
	s.Params.M = int(r.u32())
	s.Params.Seed = r.u64()
	s.Capacity = int(r.u64())
	s.Rows = int(r.u64())
	if r.err == nil && (s.Rows < 0 || s.Capacity < 0 || s.Rows > s.Capacity) {
		return nil, fmt.Errorf("%w: impossible row count", ErrCorrupt)
	}

	nnz := int(r.u64())
	offs := readWords[int32](r, s.Rows+1)
	cols := readWords[uint32](r, nnz)
	vals := readWords[float32](r, nnz)

	nTables := int(r.u32())
	if r.err == nil && nTables > 1<<20 {
		return nil, fmt.Errorf("%w: impossible table count", ErrCorrupt)
	}
	if nTables > 0 && r.checkLen(nTables, 3*8) && !drop { // a length word and more than 16 bytes of encoding a table
		s.Tables = make([]core.Table, 0, nTables)
	}
	var enc []byte // each table's encoding in turn; scratch
	for i := 0; i < nTables && r.err == nil; i++ {
		n := int(r.u64())
		if !r.checkLen(n, 1) {
			break
		}
		if drop {
			r.skip(n)
			continue
		}
		enc = slices.Grow(enc[:0], n)[:n]
		if r.bytes(enc); r.err != nil {
			break
		}
		t, err := core.DecodeTable(enc)
		if err != nil {
			r.fail(fmt.Errorf("%w: %v", ErrCorrupt, err))
		}
		s.Tables = append(s.Tables, t)
	}

	s.Deleted = readWords[uint64](r, int(r.u64()))

	if err := r.finish(); err != nil {
		return nil, err
	}
	arena, err := sparse.FromRaw(s.Params.Dim, offs, cols, vals)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	s.Arena = arena
	if want := (s.Rows + 63) / 64; len(s.Deleted) != want {
		return nil, fmt.Errorf("%w: tombstone words do not cover rows", ErrCorrupt)
	}
	if len(s.Tables) > 0 {
		if err := core.ValidateTables(s.Params, s.Rows, s.Tables); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
	}
	return s, nil
}

// syncDir fsyncs a directory so renames and segment creations survive a
// machine crash. Best-effort: some filesystems reject directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		// Best-effort by design: directory fsync is a durability upgrade
		// (the rename itself is already atomic), and some filesystems
		// reject fsync on directories.
		_ = d.Sync()
		_ = d.Close()
	}
}

// crcWriter streams sections to a buffered writer while folding every byte
// into a running CRC-32C, appended as the file's final 4 bytes.
type crcWriter struct {
	w   *bufio.Writer
	crc uint32
	err error
	tmp [8]byte
	buf []byte // chunk scratch for word arrays
}

func newCRCWriter(w io.Writer) *crcWriter {
	return &crcWriter{w: bufio.NewWriterSize(w, 1<<20), buf: make([]byte, 1<<16)}
}

func (c *crcWriter) bytes(p []byte) {
	if c.err != nil {
		return
	}
	c.crc = crc32.Update(c.crc, castagnoli, p)
	_, c.err = c.w.Write(p)
}

func (c *crcWriter) u32(v uint32) {
	binary.LittleEndian.PutUint32(c.tmp[:4], v)
	c.bytes(c.tmp[:4])
}

func (c *crcWriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(c.tmp[:8], v)
	c.bytes(c.tmp[:8])
}

// writeWords writes a word array through c.buf in 64 KiB chunks — the hot
// path for the arena and the tombstones, where per-word Write calls would
// dominate snapshot time.
func writeWords[W codec.Word](c *crcWriter, ws []W) {
	size := binary.Size(*new(W))
	for len(ws) > 0 && c.err == nil {
		n := min(len(ws), len(c.buf)/size)
		c.bytes(codec.AppendWords(c.buf[:0], ws[:n]))
		ws = ws[n:]
	}
}

// finish appends the CRC (not folded into itself) and flushes.
func (c *crcWriter) finish() error {
	if c.err != nil {
		return c.err
	}
	binary.LittleEndian.PutUint32(c.tmp[:4], c.crc)
	if _, err := c.w.Write(c.tmp[:4]); err != nil {
		return err
	}
	return c.w.Flush()
}

// crcReader mirrors crcWriter: it streams sections while tracking the CRC
// and how many payload bytes remain before the 4-byte trailer, so a
// corrupt length field fails fast instead of attempting a huge
// allocation.
type crcReader struct {
	r         *bufio.Reader
	crc       uint32
	remaining int64 // payload bytes left (file size minus trailer)
	err       error
	tmp       [8]byte
	chunk     [1 << 12]byte // decode scratch for word arrays
}

func newCRCReader(r io.Reader, size int64) *crcReader {
	// No buffer larger than the file: a decode allocates in proportion to
	// its input.
	return &crcReader{r: bufio.NewReaderSize(r, int(min(size, 1<<20))), remaining: size - 4}
}

func (c *crcReader) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

func (c *crcReader) bytes(p []byte) {
	if c.err != nil {
		return
	}
	if int64(len(p)) > c.remaining {
		c.fail(fmt.Errorf("%w: truncated", ErrCorrupt))
		return
	}
	if _, err := io.ReadFull(c.r, p); err != nil {
		c.fail(fmt.Errorf("%w: %v", ErrCorrupt, err))
		return
	}
	c.remaining -= int64(len(p))
	c.crc = crc32.Update(c.crc, castagnoli, p)
}

func (c *crcReader) u32() uint32 {
	c.bytes(c.tmp[:4])
	if c.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint32(c.tmp[:4])
}

func (c *crcReader) u64() uint64 {
	c.bytes(c.tmp[:8])
	if c.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(c.tmp[:8])
}

// skip reads n bytes, which checkLen has allowed, through c.chunk: folded
// into the CRC and dropped.
func (c *crcReader) skip(n int) {
	for n > 0 && c.err == nil {
		m := min(n, len(c.chunk))
		c.bytes(c.chunk[:m])
		n -= m
	}
}

// checkLen validates a section length against the bytes actually left in
// the file before allocating for it.
func (c *crcReader) checkLen(n, width int) bool {
	if c.err != nil {
		return false
	}
	if n < 0 || int64(n) > c.remaining/int64(width) { // no product: n is untrusted and may overflow it
		c.fail(fmt.Errorf("%w: impossible section length %d", ErrCorrupt, n))
		return false
	}
	return true
}

// readWords reads an array of n words through c.chunk, decoding each chunk
// straight into the one allocation of exactly n words it returns.
func readWords[W codec.Word](c *crcReader, n int) []W {
	size := binary.Size(*new(W))
	if !c.checkLen(n, size) {
		return nil
	}
	out := make([]W, n)
	for rest := out; len(rest) > 0; {
		m := min(len(rest), len(c.chunk)/size)
		if c.bytes(c.chunk[:m*size]); c.err != nil {
			return nil
		}
		codec.DecodeWords(rest[:m], c.chunk[:])
		rest = rest[m:]
	}
	return out
}

// finish verifies the trailing CRC.
func (c *crcReader) finish() error {
	if c.err != nil {
		return c.err
	}
	if c.remaining != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, c.remaining)
	}
	want := c.crc
	if _, err := io.ReadFull(c.r, c.tmp[:4]); err != nil {
		return fmt.Errorf("%w: missing checksum", ErrCorrupt)
	}
	if got := binary.LittleEndian.Uint32(c.tmp[:4]); got != want {
		return fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return nil
}
