// Package node combines a static PLSH index with a streaming delta table
// into one single-node store — the per-node architecture of §4 and §6,
// reworked around copy-on-write snapshots so maintenance never blocks
// reads.
//
// A node owns one contiguous document arena. Rows [0, staticLen) are
// covered by the optimized static index; rows [staticLen, total) live in a
// chain of frozen, insert-optimized delta segments. The paper buffers
// queries during a merge ("queries received during the merge are buffered
// until the merge completes", §6.2–§6.3); this implementation does not.
// Instead:
//
//   - Queries atomically load an immutable snapshot{static engine, delta
//     segments, arena prefix, tombstones} and run entirely lock-free
//     against it — they never wait on inserts, merges, or each other.
//   - Inserts append rows to the arena and publish a new snapshot under a
//     short mutex; each batch becomes a frozen delta segment, and trailing
//     segments are coalesced (Bentley–Saxe style) so the segment count
//     stays logarithmic even under single-document inserts.
//   - When the delta exceeds η·C, the segments are rotated out and a single
//     background goroutine merges them into the static structure: it
//     buckets the delta rows from the sketches their segments kept (no
//     document is hashed twice), copies the static tables and the new ones
//     into one bucket by bucket (core.Merge — §6.2 prices a merge as
//     streaming the bucket arrays through memory, and this is that), then
//     publishes the new snapshot with an atomic pointer swap. A fresh
//     active delta accepts inserts for the whole duration.
//
// Deletions set a tombstone bit with an atomic OR — safe concurrently with
// lock-free readers — and a merge leaves tombstoned rows out of the buckets
// it writes, so they are dropped, not resurrected. Retirement (the rolling
// window of §6) waits out any merge in flight, then replaces the arena and
// tombstones wholesale; in-flight snapshot queries keep reading the old,
// now-immutable structures.
//
// A node becomes durable by setting Config.Dir: every acknowledged
// Insert/Delete is journaled to a write-ahead log before it is
// acknowledged, and Open recovers the node — snapshot load, an index built
// over the snapshot's documents, then journal-tail replay — so every
// acknowledged write survives a crash.
// Snapshots come from one pipeline, the merge run, and one run is in flight
// at a time: rotate the journal, merge the rotated-out segments if there
// are any, install and publish, checkpoint the result (truncating the
// journal), and only then start the next run. Background merges, Save and
// Retire each checkpoint through a run, so no two checkpoints overlap. See
// internal/persist and DESIGN.md for the format and the recovery
// invariants.
package node

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"plsh/internal/bitvec"
	"plsh/internal/core"
	"plsh/internal/delta"
	"plsh/internal/lshhash"
	"plsh/internal/persist"
	"plsh/internal/sparse"
)

// ErrFull is returned by Insert when accepting the batch would exceed the
// node's capacity; the caller (the cluster's insert window) must advance to
// the next node.
var ErrFull = errors.New("node: capacity reached")

// ErrNotFound is returned by Delete for a document ID that was never
// inserted, so callers can distinguish a no-op from a real tombstone.
var ErrNotFound = errors.New("node: document not found")

// ErrNotDurable is returned by Save on a node configured without a data
// directory.
var ErrNotDurable = errors.New("node: no data directory configured")

// testHookMergeStart and testHookMergeBuilt, when non-nil, run inside the
// merge run's goroutine: Start before the run reads anything, Built after
// the merged index is complete but before the new snapshot is published (a
// run with no segments to merge skips Built). testHookCheckpoint runs at the
// start of every run's checkpoint — a merge's, Retire's and Save's alike —
// before the journal is touched. Tests use them to hold a merge or a
// checkpoint open deterministically; they must be set while the node is
// quiescent.
var testHookMergeStart, testHookMergeBuilt, testHookCheckpoint func()

// Config parameterizes a node.
type Config struct {
	// Params is the LSH family configuration shared by static and delta.
	Params lshhash.Params
	// Capacity is C, the maximum number of documents the node holds.
	Capacity int
	// DeltaFraction is η: a background merge of the delta into the static
	// structure starts once the delta exceeds η·C (paper: 0.1, chosen so
	// worst-case query time stays within 1.5× of static, §6.3).
	DeltaFraction float64
	// AutoMerge, when false, disables the η trigger so experiments can
	// hold a chosen static/delta split (Fig. 11). MergeNow still works.
	AutoMerge bool
	// Build configures static construction. A node bulk-builds only its
	// empty initial index; merges and segment rebuilds take Workers from
	// here and nothing else.
	Build core.BuildOptions
	// Query configures the static query path; Radius also applies to the
	// delta path.
	Query core.QueryOptions
	// Dir, when non-empty, makes the node durable: Open recovers its state
	// from Dir (latest snapshot + journal-tail replay), acknowledged
	// writes are journaled there first, and background merges checkpoint
	// snapshots that truncate the journal.
	Dir string
	// SyncWrites fsyncs every journal append before the write is
	// acknowledged. Off, acknowledged writes survive process death
	// (kill -9); on, they also survive machine crash, at a large
	// per-write cost.
	SyncWrites bool
}

// normalize rejects out-of-range settings and fills the zero ones with
// their defaults, so a value that passes is the value in effect.
func (cfg Config) normalize() (Config, error) {
	if cfg.Capacity < 0 {
		return cfg, fmt.Errorf("node: Config.Capacity = %d must not be negative", cfg.Capacity)
	}
	if !(cfg.DeltaFraction >= 0 && cfg.DeltaFraction <= 1) {
		return cfg, fmt.Errorf("node: Config.DeltaFraction = %v outside [0, 1]", cfg.DeltaFraction)
	}
	if !(cfg.Query.Radius >= 0) || math.IsInf(cfg.Query.Radius, 1) {
		return cfg, fmt.Errorf("node: Config.Query.Radius = %v must be finite and not negative", cfg.Query.Radius)
	}
	if cfg.Capacity == 0 {
		cfg.Capacity = 1 << 20
	}
	if cfg.DeltaFraction == 0 {
		cfg.DeltaFraction = 0.1
	}
	if cfg.Query.Radius == 0 {
		cfg.Query.Radius = 0.9
	}
	return cfg, nil
}

// SearchParams are the request-scoped knobs of one search — the
// parameter struct that flows from the public Search options through the
// coordinator and the wire protocol down to this entry point. The zero
// value means "the node's configured defaults, unbounded".
type SearchParams struct {
	// Radius overrides the configured query radius (radians) when > 0.
	// The hash tables are radius-agnostic, so any radius is answerable;
	// recall guarantees still assume the (k, m) geometry suits it.
	Radius float64
	// K, when > 0, bounds the answer to the k nearest in-radius documents,
	// sorted ascending by (distance, id).
	K int
}

// Stats summarizes a node's state and accumulated maintenance costs.
type Stats struct {
	StaticLen int
	// DeltaLen counts every row not yet covered by the static index,
	// including rows an in-flight background merge is currently absorbing.
	DeltaLen int
	Capacity int
	Deleted  int
	Merges   int
	// MergeInFlight reports whether a merge run is in flight right now:
	// its merge, or its checkpoint after the merged index is published.
	// MergePendingRows is how many delta rows it has yet to absorb — zero
	// once its result is installed.
	MergeInFlight    bool
	MergePendingRows int
	LastMergeDur     time.Duration
	TotalMergeNS     int64
	InsertNS         int64
	MemoryBytes      int64
	// PersistErr is the most recent persistence failure of a merge run
	// (checkpoint or journal rotation) on a durable node, Save's run
	// included; empty when healthy. Failed checkpoints leave the journal untruncated, so
	// recovery still sees every acknowledged write.
	PersistErr string

	// Operation counters, accumulated since construction. Searches
	// counts queries answered, by SearchAppend or SearchBatch alike;
	// Inserts documents accepted, Deletes tombstones acknowledged.
	// The wire carries Stats whole, field by field: a field added here
	// needs a line in the transport codec (TestStatsSurviveCodec).
	SearchesServed uint64
	InsertsServed  uint64
	DeletesServed  uint64
	// WAL latency quantiles in nanoseconds over the node's lifetime:
	// per-record segment write and (with SyncWrites) per-record fsync —
	// the server-side cause a soak report correlates acknowledged-write
	// tails against. Zero on in-memory nodes.
	WALAppendP50NS int64
	WALAppendP99NS int64
	WALFsyncP50NS  int64
	WALFsyncP99NS  int64
	// FamilyBytes is what the hash family holds: the hyperplane rows of the
	// distinct words the node has hashed so far — documents' and queries'
	// alike — and a pointer per vocabulary word (lshhash.Family.MemoryBytes).
	// It grows with the vocabulary seen, not with the rows held, so it is
	// reported beside MemoryBytes, which is per-document state, and not in
	// it.
	FamilyBytes int64
}

// segment is one frozen delta table covering arena rows
// [base, base+t.Len()).
type segment struct {
	base int
	t    *delta.Table
}

// snapshot is the immutable state a query runs against. Every field is
// either immutable after publication (engine, static, segments, arena
// prefix) or safe for concurrent atomic access (tombstones), so readers
// touch no locks at all.
type snapshot struct {
	eng     *core.Engine // over arena rows [0, nStatic)
	nStatic int
	segs    []segment      // ascending base, covering [nStatic, rows)
	store   *sparse.Matrix // read-only arena prefix covering [0, rows)
	rows    int
	deleted *bitvec.Vector // shared tombstones; atomic access only
}

// Node is a single-node PLSH store. All exported methods are safe for
// concurrent use: queries load the current snapshot atomically and run
// lock-free; inserts, merges and retirement serialize behind a short
// mutex that is never held across a merge or a segment fold, so a long
// merge stalls nobody.
type Node struct {
	cfg Config
	fam *lshhash.Family

	snap atomic.Pointer[snapshot]

	mu      sync.Mutex     // guards everything below
	store   *sparse.Matrix // master arena; append-only until Retire
	deleted *bitvec.Vector // capacity-sized; replaced wholesale on Retire
	segs    []segment      // unmerged delta segments, ascending base
	static  *core.Static   // current published static index
	eng     *core.Engine
	nStatic int

	// merging is true while a merge run is in flight, from the rotation
	// that starts it to the end of its checkpoint; one runs at a time. run
	// is the in-flight run's handle, or the last one's.
	merging    bool
	mergeUpTo  int // arena rows the in-flight run covers
	run        *mergeRun
	coalescing bool // a coalescer is rebuilding segments off-lock

	merges       int
	lastMergeDur time.Duration
	totalMergeNS int64
	insertNS     int64

	// wal is the write-ahead journal of a durable node; nil otherwise.
	// Set once at construction, never replaced.
	wal        *persist.WAL
	persistErr atomic.Pointer[string]

	// Operation counters behind Stats (one atomic add per op; survive
	// Retire, unlike the maintenance counters, because they describe
	// served traffic, not current contents).
	searchesServed atomic.Uint64
	insertsServed  atomic.Uint64
	deletesServed  atomic.Uint64
}

// mergeRun is the handle of one merge run: done closes when the run is over
// — its result installed and its checkpoint written — and err, set before
// done closes, is why its checkpoint did not happen or failed (nil on an
// in-memory node).
type mergeRun struct {
	done chan struct{}
	err  error
}

// newArena allocates a document arena for cfg: capacity rows with room
// for ~8 non-zeros per document before the value arenas first grow.
func newArena(cfg Config) *sparse.Matrix {
	return sparse.NewMatrix(cfg.Params.Dim, cfg.Capacity, cfg.Capacity*8)
}

// Open builds a node. With cfg.Dir set it is the durable boot path: load
// the latest snapshot (rejecting checksum and parameter mismatches),
// replay the journal tail on top of it — every acknowledged write lands,
// a torn tail record does not — and open the journal for new appends.
// ctx bounds the replay. Without cfg.Dir it returns an empty in-memory
// node.
func Open(ctx context.Context, cfg Config) (*Node, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	fam, err := lshhash.NewFamily(cfg.Params)
	if err != nil {
		return nil, err
	}
	n := &Node{
		cfg:     cfg,
		fam:     fam,
		store:   newArena(cfg),
		deleted: bitvec.New(cfg.Capacity),
	}
	if cfg.Dir == "" {
		n.initStaticLocked() // no readers yet; mu formality only
		n.publishLocked()
		return n, nil
	}
	if err := n.recover(ctx); err != nil {
		return nil, err
	}
	return n, nil
}

// recover rebuilds the node from its data directory: install the latest
// snapshot (if any), replay the journal tail, then open the journal for
// appending. Runs before the node is shared, so plain state writes are
// safe; the locked helpers are used for their invariants, not exclusion.
func (n *Node) recover(ctx context.Context) error {
	cfg := n.cfg
	snap, err := persist.ReadSnapshot(cfg.Dir)
	switch {
	case errors.Is(err, persist.ErrNoSnapshot):
		n.initStaticLocked()
	case err != nil:
		return err
	default:
		if snap.Params != cfg.Params {
			return fmt.Errorf("node: snapshot in %s was written with params %+v, node configured with %+v",
				cfg.Dir, snap.Params, cfg.Params)
		}
		if snap.Rows > cfg.Capacity {
			return fmt.Errorf("node: snapshot in %s holds %d rows, over capacity %d",
				cfg.Dir, snap.Rows, cfg.Capacity)
		}
		n.store.AppendMatrix(snap.Arena)
		// The snapshot's tombstone words are trimmed to its rows; the live
		// vector is capacity-sized.
		words := n.deleted.Words()
		copy(words[:len(snap.Deleted)], snap.Deleted)
		n.nStatic = snap.Rows
		// A snapshot holds no index: build it over the arena. Tombstoned
		// rows are indexed too, and filtered per query, until the next
		// merge drops them.
		n.initStaticLocked()
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	err = persist.ReplayWAL(cfg.Dir, func(rec *persist.Record) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		return n.applyRecordLocked(rec)
	})
	if err != nil {
		return err
	}
	n.publishLocked()
	wal, err := persist.OpenWAL(cfg.Dir, cfg.SyncWrites)
	if err != nil {
		return err
	}
	n.wal = wal
	// A fat recovered delta merges in the background like any other.
	n.maybeMergeLocked()
	return nil
}

// applyRecordLocked replays one journal record. Inserts wholly covered by
// the snapshot are skipped; anything else must land exactly at the arena
// tail — journal bases are assigned under the writer mutex, so a gap or
// overlap means the directory's snapshot and journal disagree.
func (n *Node) applyRecordLocked(rec *persist.Record) error {
	switch rec.Kind {
	case persist.RecordInsert:
		if rec.Base+len(rec.Docs) <= n.nStatic {
			return nil // covered by the snapshot
		}
		if rec.Base != n.store.Rows() {
			return fmt.Errorf("node: journal replay: insert at row %d, expected %d", rec.Base, n.store.Rows())
		}
		if rec.Base+len(rec.Docs) > n.cfg.Capacity {
			return fmt.Errorf("node: journal replay: %d rows exceed capacity %d",
				rec.Base+len(rec.Docs), n.cfg.Capacity)
		}
		if err := sparse.CheckAll(rec.Docs, n.cfg.Params.Dim); err != nil {
			return fmt.Errorf("node: journal replay: %w", err)
		}
		t := delta.New(n.fam, n.cfg.Build.Workers)
		t.Insert(rec.Docs)
		t.Freeze()
		n.appendSegmentLocked(rec.Docs, t)
	case persist.RecordDelete:
		if int(rec.ID) >= n.store.Rows() {
			return fmt.Errorf("node: journal replay: delete of unknown row %d", rec.ID)
		}
		n.deleted.SetAtomic(int(rec.ID))
	case persist.RecordRetire:
		n.resetLocked()
	default:
		return fmt.Errorf("node: journal replay: unknown record kind %d", rec.Kind)
	}
	return nil
}

// initStaticLocked installs the static index and engine built over the
// first nStatic rows — at construction and retirement, when nStatic is 0,
// and at recovery, over the snapshot's arena. It is the one place a node
// bulk-builds; every later index is a merge into this one. Callers hold mu
// (or are in Open).
func (n *Node) initStaticLocked() {
	prefix := n.store.Prefix(n.nStatic)
	// The store and family share Dim by construction, so MustBuild cannot
	// fail absent memory corruption.
	st := core.MustBuild(n.fam, prefix, n.cfg.Build)
	eng := core.NewEngine(st, prefix, n.cfg.Query)
	eng.SetDeleted(n.deleted)
	n.static, n.eng = st, eng
}

// mergeStatic builds the static index and engine over arena rows [0, upTo)
// from the index over its first old.Len() rows and the frozen segments
// covering the rest. It takes no locks and touches no mutable node state, so
// the background merge calls it while inserts and queries proceed.
//
// No row is hashed: the segments kept their sketches, core.Merge buckets
// the delta rows from them at the merged index's directory bits and copies
// the two table sets into one, bucket by bucket. Rows deleted before this
// point are left out of the copy and never become candidates again; later
// deletions are caught by the engine's per-query tombstone filter.
func (n *Node) mergeStatic(old *core.Static, segs []segment, prefix *sparse.Matrix, del *bitvec.Vector, upTo int) (*core.Static, *core.Engine) {
	workers := n.cfg.Build.Workers
	add := delta.ConcatSketches(tablesOf(segs))
	if old.Len()+add.N() != upTo {
		// The segments tile [old.Len(), upTo); this is unreachable absent
		// memory corruption.
		panic(fmt.Sprintf("node: merging %d+%d rows, want %d", old.Len(), add.N(), upTo))
	}
	st := core.Merge(old, add, tombstoneWords(del, upTo), workers)
	eng := core.NewEngine(st, prefix, n.cfg.Query)
	eng.SetDeleted(del)
	return st, eng
}

// publishLocked installs a fresh immutable snapshot of the current state.
// Callers hold mu. The segment slice is cloned so later in-place edits
// (coalescing, merge completion) cannot reach already-published snapshots.
func (n *Node) publishLocked() {
	rows := n.store.Rows()
	n.snap.Store(&snapshot{
		eng:     n.eng,
		nStatic: n.nStatic,
		segs:    slices.Clone(n.segs),
		store:   n.store.Prefix(rows),
		rows:    rows,
		deleted: n.deleted,
	})
}

// Len returns the number of live rows (including deleted-but-present ones).
func (n *Node) Len() int { return n.snap.Load().rows }

// StaticLen returns the number of rows covered by the static index.
func (n *Node) StaticLen() int { return n.snap.Load().nStatic }

// DeltaLen returns the number of rows not yet covered by the static index
// (frozen segments awaiting or undergoing a merge, plus the active delta).
func (n *Node) DeltaLen() int {
	s := n.snap.Load()
	return s.rows - s.nStatic
}

// Family exposes the node's hash family (shared with tests and the model).
func (n *Node) Family() *lshhash.Family { return n.fam }

// Insert appends a batch of documents, returning their node-local IDs.
// The batch must fit the remaining capacity, else ErrFull and nothing is
// inserted. When the delta exceeds η·C a background merge is kicked off;
// Insert does not wait for it.
//
// Cancellation is checked before any state changes; once the batch starts
// it runs to completion so the index never holds a partially applied batch.
// A document that does not fit the node's dimension (sparse.ErrInvalid)
// rejects the whole batch before anything is hashed.
func (n *Node) Insert(ctx context.Context, vs []sparse.Vector) ([]uint32, error) {
	if len(vs) == 0 {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := sparse.CheckAll(vs, n.cfg.Params.Dim); err != nil {
		return nil, fmt.Errorf("node: insert: %w", err)
	}
	t0 := time.Now()
	// Hash the batch and build its frozen segment before taking the mutex:
	// the table depends only on the documents, not on where in the arena
	// they land, so the expensive per-batch work never blocks concurrent
	// Stats/Flush/MergeNow or other inserts. (A batch that then fails the
	// capacity check wastes this work — rare and terminal for the node.)
	t := delta.New(n.fam, n.cfg.Build.Workers)
	t.Insert(vs)
	t.Freeze()
	n.mu.Lock()
	if n.store.Rows()+len(vs) > n.cfg.Capacity {
		n.mu.Unlock()
		return nil, ErrFull
	}
	base := n.store.Rows()
	if n.wal != nil {
		// Write-ahead: the batch is journaled — at the base the mutex just
		// assigned, keeping journal order equal to arena order — before any
		// in-memory state changes, and acknowledged only after the journal
		// accepts it. A journal failure leaves the node untouched. The
		// append commits under the insert mutex so journal order equals
		// arena order; queries never take n.mu.
		if err := n.wal.AppendInsert(base, vs); err != nil {
			n.mu.Unlock()
			return nil, err
		}
	}
	n.appendSegmentLocked(vs, t)
	n.insertNS += int64(time.Since(t0))
	n.publishLocked()
	n.maybeMergeLocked()
	n.mu.Unlock()
	n.insertsServed.Add(uint64(len(vs)))
	ids := make([]uint32, len(vs))
	for i := range ids {
		ids[i] = uint32(base + i)
	}
	return ids, nil
}

// appendSegmentLocked appends vs at the arena tail with t, their frozen
// segment, and folds the trailing run (coalesceLoopLocked) — the one
// write of a batch, live or replayed. Called with mu held.
func (n *Node) appendSegmentLocked(vs []sparse.Vector, t *delta.Table) {
	base := n.store.Rows()
	for _, v := range vs {
		n.store.AppendRow(v)
	}
	n.segs = append(n.segs, segment{base: base, t: t})
	n.coalesceLoopLocked()
}

// maybeMergeLocked is the η trigger: with AutoMerge on and no merge in
// flight, a delta grown past η·C starts a background merge of every row
// inserted so far. Called with mu held — after an insert, a replayed
// journal, or a merge whose delta outgrew η·C while it ran.
func (n *Node) maybeMergeLocked() {
	if n.cfg.AutoMerge && !n.merging &&
		float64(n.store.Rows()-n.nStatic) > n.cfg.DeltaFraction*float64(n.cfg.Capacity) {
		n.startRunLocked()
	}
}

// coalesceLoopLocked folds the trailing delta segments while the next-older
// one is within 2× of everything newer (the Bentley–Saxe logarithmic
// scheme), so the per-query segment walk stays O(log deltaLen) even under
// single-document inserts, at amortized O(log) rebucketing per row. The
// whole run the rule reaches is rebuilt in one delta.CoalesceRun: folding it
// pair by pair ends in the same segment but rebuckets the run's older rows
// once per pair.
//
// Rebucketing depends only on the run's immutable sketches and the
// tombstones, so each fold releases mu for the build and revalidates
// before splicing — the mutex is never held across the expensive work. At
// most one coalescer runs at a time; concurrent inserts skip and leave the
// tail for the next round (a mid-list run missed that way is absorbed no
// later than the next merge). Entered and exited with mu held.
func (n *Node) coalesceLoopLocked() {
	if n.coalescing {
		return
	}
	n.coalescing = true
	defer func() { n.coalescing = false }()
	for {
		floor := n.nStatic
		if n.merging {
			floor = n.mergeUpTo
		}
		start := trailingRun(n.segs, floor)
		if start == len(n.segs)-1 {
			return
		}
		base, run := n.segs[start].base, tablesOf(n.segs[start:])
		del := n.deleted
		n.mu.Unlock()
		merged := delta.CoalesceRun(n.fam, run, n.cfg.Build.Workers, func(i int) bool {
			return del.TestAtomic(base + i)
		})
		n.mu.Lock()
		// Revalidate: a completed background merge may have absorbed and
		// dropped the run while we rebuilt it — all of it or none, a merge
		// taking every segment below its boundary. Segments never reorder,
		// so the run is where its first table is; splice in place (published
		// snapshots hold clones and are unaffected), else discard.
		if i := slices.IndexFunc(n.segs, func(sg segment) bool { return sg.t == run[0] }); i >= 0 {
			n.segs = slices.Replace(n.segs, i, i+len(run), segment{base: base, t: merged})
		}
	}
}

// tablesOf returns the segments' tables, in order.
func tablesOf(segs []segment) []*delta.Table {
	run := make([]*delta.Table, len(segs))
	for i, sg := range segs {
		run[i] = sg.t
	}
	return run
}

// trailingRun returns where the run of segments that should fold into one
// starts: the newest segment, extended over each older one that lies at or
// above floor (the rows no merge has claimed) and holds at most twice the
// rows newer than it. len(segs)-1 means the newest stands alone.
func trailingRun(segs []segment, floor int) int {
	i := len(segs) - 1
	if i < 0 {
		return i
	}
	rows := segs[i].t.Len()
	for i > 0 && segs[i-1].base >= floor && segs[i-1].t.Len() <= 2*rows {
		i--
		rows += segs[i].t.Len()
	}
	return i
}

// startRunLocked starts a merge run over every row present; n.run is its
// handle. Callers hold mu and have checked that no run is in flight.
func (n *Node) startRunLocked() {
	upTo := n.store.Rows()
	run := &mergeRun{done: make(chan struct{})}
	token := 0
	if n.wal != nil {
		// Rotate the journal at the run's boundary. Every journaled record
		// was both appended and applied under mu, and upTo is the row count,
		// so everything in the sealed segments is covered by the snapshot
		// this run's checkpoint writes — the invariant that makes truncating
		// them safe. If rotation fails, the merge still runs; only the
		// checkpoint is skipped, so no journal data is lost.
		if token, run.err = n.wal.Rotate(); run.err != nil {
			n.notePersistErr(run.err)
		}
	}
	n.merging, n.mergeUpTo, n.run = true, upTo, run
	// The run reads the segments off-lock while the coalescer may splice
	// n.segs in place, so it gets its own slice. The tables are frozen, and
	// a splice below upTo only ever replaces them with their own fold.
	go n.runMerge(run, n.static, slices.Clone(n.segs), n.store.Prefix(upTo), n.deleted, upTo, token)
}

// runMerge is the merge pipeline, one run of it: merge the frozen segments
// into the static index old (mergeStatic) without holding any lock, then
// install and publish the result with a brief critical section and an
// atomic snapshot swap; a run with no segments merges nothing. Queries and
// inserts proceed throughout. On a durable node the run then checkpoints
// the static state — snapshot written, sealed journal segments truncated —
// still off-lock; one that fails is noted in Stats.PersistErr and leaves the
// journal whole. Only after the checkpoint does the run end: merging turns
// false, the next run starts if the delta outgrew η·C meanwhile, and done
// closes. So a closed done means this run's checkpoint and every earlier
// one are written, and the journal rotates again only once they are.
func (n *Node) runMerge(run *mergeRun, old *core.Static, segs []segment, prefix *sparse.Matrix, del *bitvec.Vector, upTo, token int) {
	if h := testHookMergeStart; h != nil {
		h()
	}
	st := old
	if upTo > old.Len() {
		t0 := time.Now()
		var eng *core.Engine
		st, eng = n.mergeStatic(old, segs, prefix, del, upTo)
		dur := time.Since(t0)
		if h := testHookMergeBuilt; h != nil {
			h()
		}

		n.mu.Lock()
		n.static, n.eng, n.nStatic = st, eng, upTo
		// Drop the segments the new static index now covers. Build a fresh
		// slice: published snapshots still reference the old segments.
		var keep []segment
		for _, sg := range n.segs {
			if sg.base >= upTo {
				keep = append(keep, sg)
			}
		}
		n.segs = keep
		n.merges++
		n.lastMergeDur = dur
		n.totalMergeNS += int64(dur)
		n.publishLocked()
		n.mu.Unlock()
	}
	if token > 0 {
		// prefix and the tombstones are immutable/atomic, so the
		// checkpoint serializes them without any lock.
		if run.err = n.checkpoint(makeSnapshot(n.cfg, prefix, del, upTo), token); run.err != nil {
			n.notePersistErr(run.err)
		}
	}
	n.mu.Lock()
	n.merging = false
	// Sustained-ingest chaining: if the active delta outgrew η·C while this
	// run went on, start the next one now.
	n.maybeMergeLocked()
	n.mu.Unlock()
	close(run.done)
}

// makeSnapshot assembles the durable image of a merged state: rows
// documents and the tombstone words trimmed and masked to exactly rows bits
// (stale bits past the row count would otherwise pre-delete future inserts
// on recovery).
func makeSnapshot(cfg Config, prefix *sparse.Matrix, del *bitvec.Vector, rows int) *persist.Snapshot {
	return &persist.Snapshot{
		Params:   cfg.Params,
		Capacity: cfg.Capacity,
		Rows:     rows,
		Arena:    prefix,
		Deleted:  tombstoneWords(del, rows),
	}
}

// tombstoneWords copies the tombstones of the first rows rows out of the
// live bitmap, one atomic load a word, trimmed and masked to exactly rows
// bits.
func tombstoneWords(del *bitvec.Vector, rows int) []uint64 {
	words := del.Words()
	nw := (rows + 63) / 64
	dw := make([]uint64, nw)
	for i := range dw {
		dw[i] = atomic.LoadUint64(&words[i])
	}
	if rows%64 != 0 {
		dw[nw-1] &= 1<<(rows%64) - 1
	}
	return dw
}

// checkpoint writes snap and truncates the journal segments token sealed.
// Callers hold no lock: queries, inserts and deletes run on while it
// writes.
func (n *Node) checkpoint(snap *persist.Snapshot, token int) error {
	if h := testHookCheckpoint; h != nil {
		h()
	}
	return n.wal.Checkpoint(snap, token)
}

func (n *Node) notePersistErr(err error) {
	s := err.Error()
	n.persistErr.Store(&s)
}

// awaitRunLocked waits out the run in flight, honoring ctx. Callers hold mu
// with n.merging true; on nil return the lock is held again, on error
// (canceled ctx) it is released.
func (n *Node) awaitRunLocked(ctx context.Context) error {
	done := n.run.done
	n.mu.Unlock()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-done:
		n.mu.Lock()
		return nil
	}
}

// MergeNow forces every row present at the time of the call into the static
// structure and returns once that state is reached and its checkpoint has
// run (a quiesced merge): it waits out any run in flight, starts one if rows
// are still outside the static index, and honors ctx while waiting. A
// checkpoint that fails is not MergeNow's error: it surfaces only in
// Stats.PersistErr, the journal keeps every row, and Save is the call that
// returns such an error. Queries and inserts are never blocked by the work
// it triggers.
func (n *Node) MergeNow(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	n.mu.Lock()
	target := n.store.Rows()
	for {
		// A concurrent Retire can erase the rows this call set out to
		// merge; clamping the target to the current row count keeps the
		// quiescence condition reachable (and trivially satisfied on an
		// emptied node).
		if r := n.store.Rows(); r < target {
			target = r
		}
		static := n.nStatic >= target
		if static && !n.merging {
			n.mu.Unlock()
			return nil
		}
		if !n.merging {
			n.startRunLocked()
		}
		if err := n.awaitRunLocked(ctx); err != nil {
			return err
		}
		if static {
			// The rows were static already; the run just over was the
			// only one that could still be writing their checkpoint.
			n.mu.Unlock()
			return nil
		}
	}
}

// Flush waits for the run in flight, and any run chained behind it, to
// finish, checkpoint included, without forcing one, honoring ctx. It
// returns nil immediately when no run is in flight. Like MergeNow it does
// not return a failed checkpoint: that surfaces only in Stats.PersistErr,
// and Save returns it.
func (n *Node) Flush(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	n.mu.Lock()
	for n.merging {
		if err := n.awaitRunLocked(ctx); err != nil {
			return err
		}
	}
	n.mu.Unlock()
	return nil
}

// Delete marks a node-local ID as deleted; it will not be returned by
// queries, including queries running right now against older snapshots
// (tombstones are shared and read atomically). Safe to call concurrently
// with queries, inserts, and an in-flight merge: rows deleted before the
// merge copies the tombstones are left out of the new buckets, rows deleted
// after are filtered per query. Deleting an ID that was never inserted
// returns ErrNotFound; on a durable node the tombstone is journaled before
// the call returns.
func (n *Node) Delete(id uint32) error {
	if n.wal == nil {
		s := n.snap.Load()
		if int(id) >= s.rows {
			return ErrNotFound
		}
		s.deleted.SetAtomic(int(id))
		n.deletesServed.Add(1)
		return nil
	}
	// Durable path: journal, then apply, both under the writer mutex.
	// Journal rotation also runs under mu, so a tombstone journaled into a
	// sealed (about-to-be-truncated) segment is always applied before the
	// sealing merge's checkpoint copies the tombstone words — it can never
	// fall between the truncated journal and the snapshot.
	n.mu.Lock()
	defer n.mu.Unlock()
	if int(id) >= n.store.Rows() {
		return ErrNotFound
	}
	// Journal-before-ack: the tombstone is journaled under n.mu so recovery
	// replays deletes in mutation order.
	if err := n.wal.AppendDelete(id); err != nil {
		return err
	}
	n.deleted.SetAtomic(int(id))
	n.deletesServed.Add(1)
	return nil
}

// Retire erases the node's contents (the rolling-window expiration of §6:
// "the contents of the these nodes are erased"), retaining the hash family
// and capacity. It waits out any run in flight first — honoring ctx while
// waiting, like MergeNow and Flush; a canceled wait returns ctx.Err() with
// the node unretired — then replaces the arena and tombstones wholesale, so
// queries holding older snapshots keep reading the retired (immutable)
// structures and simply age out. On a durable node the erasure is journaled
// before it happens, and Retire returns once a run over the emptied state
// has checkpointed it, so a crash at any point recovers to either the full
// or the empty state — never a resurrection of expired documents — and the
// pre-retirement snapshot and journal are dropped rather than replayed and
// discarded on every later boot.
func (n *Node) Retire(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	n.mu.Lock()
	for n.merging {
		if err := n.awaitRunLocked(ctx); err != nil {
			return err
		}
	}
	if n.wal != nil {
		// Journal-before-ack: retirement is journaled under n.mu so recovery
		// cannot resurrect retired rows.
		if err := n.wal.AppendRetire(); err != nil {
			n.mu.Unlock()
			return err
		}
	}
	n.resetLocked()
	n.publishLocked()
	// The retire record already made the erasure durable; a failure of
	// this run's checkpoint only costs disk space, and Stats.PersistErr
	// reports it.
	n.startRunLocked()
	run := n.run
	n.mu.Unlock()
	<-run.done
	return nil
}

// resetLocked erases the node's contents in place: fresh arena and
// tombstones (published snapshots keep the old ones), empty static.
// Callers hold mu.
func (n *Node) resetLocked() {
	n.store = newArena(n.cfg)
	n.deleted = bitvec.New(n.cfg.Capacity)
	n.segs = nil
	n.nStatic = 0
	n.initStaticLocked()
	n.merges = 0
	n.lastMergeDur = 0
	n.totalMergeNS = 0
	n.insertNS = 0
}

// Save forces a durable checkpoint of the node's own data directory: it
// waits out the run in flight, then drives one run over every row present
// — merging them all into the static index, writing the snapshot and
// truncating the journal — and returns that run's error. Returns
// ErrNotDurable when no Config.Dir was set.
func (n *Node) Save(ctx context.Context) error {
	if n.wal == nil {
		return ErrNotDurable
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	n.mu.Lock()
	if n.merging {
		// The run in flight rotated the journal before the latest writes;
		// the one after it — chained behind it, or started here — covers
		// them.
		if err := n.awaitRunLocked(ctx); err != nil {
			return err
		}
	}
	if !n.merging {
		n.startRunLocked()
	}
	run := n.run
	if err := n.awaitRunLocked(ctx); err != nil {
		return err
	}
	n.mu.Unlock()
	return run.err
}

// SaveTo writes a quiesced snapshot of the node into dir — a
// backup/export that any node configured with identical Params can Open.
// When dir is the node's own data directory this is exactly Save, journal
// truncation included.
func (n *Node) SaveTo(ctx context.Context, dir string) error {
	if n.wal != nil && sameDir(dir, n.cfg.Dir) {
		return n.Save(ctx)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	n.mu.Lock()
	for n.merging || n.nStatic < n.store.Rows() {
		if !n.merging {
			n.startRunLocked()
		}
		if err := n.awaitRunLocked(ctx); err != nil {
			return err
		}
	}
	// Quiesced under the lock: every row is static and no run is in
	// flight, so the captured state is the whole node.
	snap := makeSnapshot(n.cfg, n.store.Prefix(n.nStatic), n.deleted, n.nStatic)
	n.mu.Unlock()
	return persist.WriteSnapshot(dir, snap)
}

func sameDir(a, b string) bool {
	if a == b {
		return true
	}
	aa, errA := filepath.Abs(a)
	bb, errB := filepath.Abs(b)
	return errA == nil && errB == nil && aa == bb
}

// Close releases a durable node's journal after waiting out any run in
// flight (so its checkpoint lands). Published snapshots keep answering
// queries; further journaled writes fail. No-op on an in-memory node.
func (n *Node) Close() error {
	if n.wal == nil {
		return nil
	}
	// Close implements io.Closer and cannot take a ctx: the final flush
	// runs to completion.
	if err := n.Flush(context.Background()); err != nil {
		return err
	}
	return n.wal.Close()
}

// Stats returns a snapshot of the node's state.
func (n *Node) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	rows := n.store.Rows()
	mem := n.static.MemoryBytes() + n.store.MemoryBytes()
	for _, sg := range n.segs {
		mem += sg.t.MemoryBytes()
	}
	st := Stats{
		StaticLen:     n.nStatic,
		DeltaLen:      rows - n.nStatic,
		Capacity:      n.cfg.Capacity,
		Deleted:       n.deleted.CountAtomic(),
		Merges:        n.merges,
		MergeInFlight: n.merging,
		LastMergeDur:  n.lastMergeDur,
		TotalMergeNS:  n.totalMergeNS,
		InsertNS:      n.insertNS,
		MemoryBytes:   mem,
	}
	if n.merging {
		st.MergePendingRows = n.mergeUpTo - n.nStatic
	}
	if p := n.persistErr.Load(); p != nil {
		st.PersistErr = *p
	}
	st.SearchesServed = n.searchesServed.Load()
	st.InsertsServed = n.insertsServed.Load()
	st.DeletesServed = n.deletesServed.Load()
	if n.wal != nil {
		st.WALAppendP50NS = int64(n.wal.WriteQuantile(0.50))
		st.WALAppendP99NS = int64(n.wal.WriteQuantile(0.99))
		st.WALFsyncP50NS = int64(n.wal.SyncQuantile(0.50))
		st.WALFsyncP99NS = int64(n.wal.SyncQuantile(0.99))
	}
	st.FamilyBytes = n.fam.MemoryBytes()
	return st
}

// SearchAppend answers one query under request-scoped parameters, with
// the append contract of core.Engine.SearchAppend: answers are appended to
// dst, finished over the appended suffix only — in the canonical
// presentation order, ascending (distance, id), and bounded to the k
// nearest when p.K is set — and the extended slice is returned. A caller
// that reuses dst across calls makes the whole node-level search
// allocation-free in steady state; the caller owns dst and everything
// returned. A query that does not fit the
// node's dimension is refused with an error wrapping sparse.ErrInvalid.
func (n *Node) SearchAppend(ctx context.Context, dst []core.Neighbor, q sparse.Vector, p SearchParams) ([]core.Neighbor, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := q.Check(n.cfg.Params.Dim); err != nil {
		return nil, err
	}
	n.searchesServed.Add(1)
	return finishSearch(n.searchOn(dst, n.snap.Load(), q, p), len(dst), p), nil
}

// SearchBatch answers a batch under one set of request-scoped parameters,
// in parallel (work stealing over queries, as in §5.2), every worker
// running against one consistent snapshot. Cancellation is cooperative:
// workers check ctx between queries, so an expired deadline abandons the
// remainder of the batch promptly and the whole call reports ctx.Err().
// One query that does not fit the node's dimension (sparse.ErrInvalid)
// refuses the batch. The answers are one array per call: each pool worker
// appends its queries' finished answers to its own region of it, and each
// query's list is carved from its worker's array as the query finishes,
// as the wire's decoder carves a reply's lists from one array. A worker
// whose answers outgrow its region grows its array alone; lists carved
// before that keep their place, which no later append touches. A query
// with no answer gets a nil list. The matrix belongs to the caller.
func (n *Node) SearchBatch(ctx context.Context, qs []sparse.Vector, p SearchParams) ([][]core.Neighbor, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := sparse.CheckAll(qs, n.cfg.Params.Dim); err != nil {
		return nil, fmt.Errorf("node: search: %w", err)
	}
	s := n.snap.Load()
	pool := s.eng.Pool()
	// Run gives min(workers, tasks) workers a share of the tasks each, so
	// only those get a region; the lists and the arrays share one
	// allocation.
	busy := max(min(pool.Workers(), len(qs)), 1)
	per := (len(qs) + busy - 1) / busy * answersHint
	lists := make([][]core.Neighbor, len(qs)+pool.Workers())
	out, arrays := lists[:len(qs):len(qs)], lists[len(qs):]
	region := make([]core.Neighbor, busy*per)
	for w := range busy {
		arrays[w] = region[w*per : w*per : (w+1)*per]
	}
	pool.Run(len(qs), func(task, w int) {
		if ctx.Err() != nil {
			return
		}
		lo := len(arrays[w])
		arrays[w] = finishSearch(n.searchOn(arrays[w], s, qs[task], p), lo, p)
		if hi := len(arrays[w]); hi > lo {
			out[task] = arrays[w][lo:hi:hi]
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n.searchesServed.Add(uint64(len(qs)))
	return out, nil
}

// answersHint is the room SearchBatch reserves for each query's answers,
// about a typical R-near set (1.3 answers a query at 32 000 rows, 3.0 at
// 262 144; ROADMAP R3). A worker whose queries answer more grows its array.
const answersHint = 4

// finishSearch imposes the answer contract of SearchAppend on the raw
// candidates appended past res[:base]: canonical (distance, id) order,
// cut at p.K when bounded. Entries before base are the caller's and are
// left untouched.
func finishSearch(res []core.Neighbor, base int, p SearchParams) []core.Neighbor {
	core.SortNeighbors(res[base:])
	if p.K > 0 && len(res)-base > p.K {
		res = res[:base+p.K]
	}
	return res
}

// searchOn runs the combined static+delta query against one immutable
// snapshot under request-scoped parameters, appending raw answers to dst.
// It takes no locks: the engine, segments and arena prefix are frozen,
// and tombstones are read atomically. The query is hashed and scattered
// once, into the engine's workspace, and the static index and every delta
// segment are probed and verified under that one Begin and the one Filter
// the engine resolves the request's radius to. p.K is left to the
// caller (finishSearch) so the R-near set stays intact for reuse.
func (n *Node) searchOn(dst []core.Neighbor, s *snapshot, q sparse.Vector, p SearchParams) []core.Neighbor {
	if q.NNZ() == 0 {
		return dst
	}
	ws := s.eng.Begin(q)
	defer s.eng.End(ws)
	f := s.eng.Filter(ws, core.SearchParams{Radius: p.Radius})
	res, _ := s.eng.SearchOn(dst, ws, f)
	for _, sg := range s.segs {
		res, _, _ = core.Verify(res, ws.Probe(sg.t), uint32(sg.base), sg.t.Signs(), s.store, s.deleted, f)
	}
	return res
}

// Doc returns document id's vector (shared storage; do not modify) and
// whether the id has ever been inserted — the node is the authority on
// that, so an inserted-but-empty document still reports true. An id never
// inserted returns (zero Vector, false) instead of panicking.
func (n *Node) Doc(id uint32) (sparse.Vector, bool) {
	s := n.snap.Load()
	if int(id) >= s.rows {
		return sparse.Vector{}, false
	}
	return s.store.Row(int(id)), true
}
