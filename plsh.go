package plsh

import (
	"context"
	"errors"
	"fmt"
	"math"

	"plsh/internal/cluster"
	"plsh/internal/core"
	"plsh/internal/lshhash"
	"plsh/internal/node"
	"plsh/internal/sparse"
	"plsh/internal/transport"
)

// Vector is a sparse unit vector: parallel slices of strictly increasing
// column indexes and float32 values. Use NewVector to build one from
// unordered pairs, or an Encoder for text.
type Vector = sparse.Vector

// NewVector builds a Vector from unordered (index, value) pairs, sorting
// by index and summing duplicates.
func NewVector(idx []uint32, val []float32) (Vector, error) { return sparse.NewVector(idx, val) }

// Stats is a snapshot of a Store's state (sizes, merge/insert overheads,
// memory use).
type Stats = node.Stats

// ErrFull is returned by Store.Insert when the configured capacity would
// be exceeded.
var ErrFull = node.ErrFull

// ErrNotFound is returned (possibly wrapped) by Store.Delete and
// Cluster.Delete for a document ID that was never inserted, so callers
// can distinguish a no-op from a real tombstone.
var ErrNotFound = node.ErrNotFound

// ErrInvalidVector is returned (wrapped) by Insert, Search and SearchBatch
// for a vector the index cannot address: a column at or past Config.Dim,
// or index and value slices of different lengths.
var ErrInvalidVector = sparse.ErrInvalid

// ErrNotDurable is returned (possibly wrapped) by Save on an index
// configured without a data directory.
var ErrNotDurable = node.ErrNotDurable

// Config parameterizes a Store.
type Config struct {
	// Dim is the dimensionality of the vector space (vocabulary size).
	// Required.
	Dim int
	// K is the bits per hash table: even, 2 to 32 (default 16, the paper's
	// value).
	K int
	// M is the number of half-width hash functions; L = M(M−1)/2 tables
	// (default 16 → 120 tables; the paper's 10.5M-document nodes use 40).
	// Use Tune to pick K and M from data for a target recall.
	M int
	// Radius is the R-near-neighbor radius in radians (default 0.9, the
	// paper's Twitter setting).
	Radius float64
	// Capacity is the maximum document count (default 1<<20).
	Capacity int
	// DeltaFraction is η: the streaming delta table is merged into the
	// static structure when it exceeds η·Capacity (default 0.1).
	DeltaFraction float64
	// Workers bounds parallelism (default GOMAXPROCS).
	Workers int
	// Seed makes hashing deterministic (default 1). In a replicated
	// cluster every node must share the seed: mirrored members answer
	// replica-agnostically only when they draw identical hyperplanes.
	Seed uint64
	// Replicas is R, the mirrored members per replica group of a Cluster
	// (default 1, the paper's single-copy layout — bit-stable with
	// clusters built before replication existed). OpenCluster arranges
	// its nodes into nodes/R groups of R mirrors each: inserts are
	// written to every member of the target group, searches pick one
	// member and fail over to its siblings on error (see WithHedge for
	// the latency hedge), so any single member can die without losing
	// answers. Ignored by a Store.
	Replicas int
	// Placement selects how a Cluster places documents onto replica
	// groups and which groups a search contacts. The default,
	// PlacementScatter, is the paper's layout: inserts round-robin over
	// the rolling window, searches broadcast to every group — bit-stable
	// with clusters built before placement existed. PlacementPartitioned
	// places each document on the group chosen from its LSH bucket
	// signature and routes each search to the recall-bounded set of
	// groups that can hold its in-radius neighbors (falling back to the
	// full broadcast per query when the probe set degenerates), trading
	// RoutingRecall for per-query cost proportional to the probe count
	// instead of the fleet size. Partitioned placement gives up the
	// rolling insert window: documents live where their signature says,
	// nothing is retired, and a full target group fails the insert with
	// an *InsertError wrapping ErrFull naming the group. It places over
	// at most 256 groups (an 8-bit routing signature); OpenCluster and
	// DialCluster refuse more. Ignored by a Store (one node holds
	// everything).
	Placement Placement
	// RoutingRecall is the partitioned-placement probe-mass target in
	// (0, 1] (default 0.9): every document within the search radius is
	// probed-for with at least this probability. Higher values probe
	// more groups per query. Ignored unless Placement is
	// PlacementPartitioned.
	RoutingRecall float64
	// Dir, when non-empty, makes the Store durable: state is recovered
	// from Dir on open (snapshot + journal replay), every acknowledged
	// Insert/Delete is journaled there before the call returns, and
	// background merges checkpoint snapshots. Open is the idiomatic way
	// to set it. Empty (the default) keeps everything in memory.
	Dir string
	// SyncWrites fsyncs every journal append before the write is
	// acknowledged. Off, acknowledged writes survive process death
	// (kill -9); on, they also survive machine crash, at a large
	// per-write cost.
	SyncWrites bool
}

// validateDocs is the one insert-side document check, shared by Store
// and Cluster so the Index implementations cannot drift: documents must
// be non-empty (the delta table and Doc's known/unknown answer both
// assume content-bearing rows at this layer).
func validateDocs(docs []Vector) error {
	for i, d := range docs {
		if d.NNZ() == 0 {
			return fmt.Errorf("plsh: document %d is empty", i)
		}
	}
	return nil
}

// normalize validates cfg and fills defaults. Every field is either
// rejected or reflected: a value that passes normalize is the value in
// effect, so Store.Config never reports a setting the node silently
// rewrote.
func (c Config) normalize() (Config, error) {
	if c.Dim <= 0 {
		return c, errors.New("plsh: Config.Dim is required")
	}
	if !(c.Radius >= 0) || math.IsInf(c.Radius, 1) {
		return c, fmt.Errorf("plsh: Config.Radius = %v must be finite and not negative", c.Radius)
	}
	if c.Capacity < 0 {
		return c, fmt.Errorf("plsh: Config.Capacity = %d must not be negative", c.Capacity)
	}
	if !(c.DeltaFraction >= 0 && c.DeltaFraction <= 1) {
		return c, fmt.Errorf("plsh: Config.DeltaFraction = %v outside [0, 1]", c.DeltaFraction)
	}
	if c.Replicas < 0 {
		return c, fmt.Errorf("plsh: Config.Replicas = %d must not be negative", c.Replicas)
	}
	if c.Placement != PlacementScatter && c.Placement != PlacementPartitioned {
		return c, fmt.Errorf("plsh: unknown Config.Placement %d", c.Placement)
	}
	if !(c.RoutingRecall >= 0 && c.RoutingRecall <= 1) {
		return c, fmt.Errorf("plsh: Config.RoutingRecall = %v outside (0, 1]", c.RoutingRecall)
	}
	if c.RoutingRecall == 0 {
		c.RoutingRecall = 0.9
	}
	if c.Replicas == 0 {
		c.Replicas = 1
	}
	if c.K == 0 {
		c.K = 16
	}
	if c.M == 0 {
		c.M = 16
	}
	if c.Radius == 0 {
		c.Radius = 0.9
	}
	if c.Capacity == 0 {
		c.Capacity = 1 << 20
	}
	if c.DeltaFraction == 0 {
		c.DeltaFraction = 0.1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	p := lshhash.Params{Dim: c.Dim, K: c.K, M: c.M, Seed: c.Seed}
	if err := p.Validate(); err != nil {
		return c, fmt.Errorf("plsh: %w", err)
	}
	return c, nil
}

func (c Config) nodeConfig() node.Config {
	build := core.Defaults()
	build.Workers = c.Workers
	query := core.QueryDefaults()
	query.Radius = c.Radius
	query.Workers = c.Workers
	return node.Config{
		Params:        lshhash.Params{Dim: c.Dim, K: c.K, M: c.M, Seed: c.Seed},
		Capacity:      c.Capacity,
		DeltaFraction: c.DeltaFraction,
		AutoMerge:     true,
		Build:         build,
		Query:         query,
		Dir:           c.Dir,
		SyncWrites:    c.SyncWrites,
	}
}

// Store is a single-node streaming similarity-search index — the
// one-node implementation of Index (it is node 0, so its global IDs are
// the node-local IDs zero-extended). All methods are safe for concurrent
// use. Queries run lock-free against immutable copy-on-write snapshots,
// so they proceed concurrently with each other, with inserts, and with
// merges: when the delta table exceeds DeltaFraction·Capacity it is merged
// into the static structure on a background goroutine and the result is
// published with an atomic pointer swap — queries are never buffered
// behind it. Use Merge to force
// and await a fully merged state, Flush to just await any background
// merge already in flight, and Stats' MergeInFlight to observe one.
//
// Every operation takes a context.Context, mirroring the cluster API: a
// canceled or expired context makes the call return ctx.Err() (batch
// queries abandon their remaining work cooperatively; writes are checked
// before any state changes).
//
// A Store opened with a data directory (Open, or Config.Dir) is durable:
// acknowledged writes are journaled before they are acknowledged, merges
// checkpoint snapshots, and reopening the directory recovers every
// acknowledged write — see Open, Save, and DESIGN.md for the on-disk
// format and recovery semantics.
type Store struct {
	cfg Config
	n   *node.Node
	one *Cluster // a coordinator with n as its one group: SearchBatch's path
}

// NewStore creates a Store: empty when cfg.Dir is unset, recovered from
// cfg.Dir when it is. It is the context-less convenience shim over Open
// and runs recovery under context.Background() — unbounded, uncancelable.
// Callers that need to bound or abort recovery of a large data directory
// must use Open, the ctx-aware form, instead.
func NewStore(cfg Config) (*Store, error) {
	return Open(context.Background(), cfg.Dir, cfg)
}

// Open opens a durable Store rooted at dir (overriding cfg.Dir): the
// latest snapshot is loaded — checksum and hash-parameter mismatches are
// rejected, never loaded as garbage — and the write-ahead journal's tail
// is replayed on top, so every write acknowledged before a crash is
// queryable again, without rehashing the snapshotted documents. A fresh
// or empty dir opens an empty durable Store. ctx bounds the recovery.
//
// With dir (and cfg.Dir) empty, Open returns a plain in-memory Store.
func Open(ctx context.Context, dir string, cfg Config) (*Store, error) {
	cfg.Dir = dir
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	n, err := node.Open(ctx, cfg.nodeConfig())
	if err != nil {
		return nil, fmt.Errorf("plsh: %w", err)
	}
	one, err := newCluster(ctx, []transport.NodeClient{transport.NewLocal(n)}, cluster.Options{})
	if err != nil {
		return nil, err
	}
	return &Store{cfg: cfg, n: n, one: one}, nil
}

// Insert appends documents, returning their global IDs (dense, in arrival
// order; a Store is node 0, so the IDs are the node-local IDs
// zero-extended). Documents should be unit-normalized; Insert rejects
// empty vectors. Returns ErrFull when capacity would be exceeded.
func (s *Store) Insert(ctx context.Context, docs []Vector) ([]uint64, error) {
	if err := validateDocs(docs); err != nil {
		return nil, err
	}
	local, err := s.n.Insert(ctx, docs)
	if err != nil {
		return nil, err
	}
	ids := make([]uint64, len(local))
	for i, l := range local {
		ids[i] = GlobalID(0, l)
	}
	return ids, nil
}

// Search answers one query under request-scoped options: every stored
// document within the effective radius (WithRadius, or the construction
// Config.Radius) is reported with probability ≥ 1−δ for the tuned
// parameters (see Tune), every reported document is truly within that
// radius, and matches come back ascending by (distance, ID) — bounded to
// the k nearest with WithK.
func (s *Store) Search(ctx context.Context, q Vector, opts ...SearchOption) (Result, error) {
	spec, err := resolveSearch(opts)
	if err != nil {
		return Result{}, err
	}
	// A single query stays on the node, not on the coordinator SearchBatch
	// runs: no batch wrapper, no Report machinery — the node appends into
	// a stack buffer and the only result allocation is the caller's
	// []Match (plus one growth when more than 32 documents are in radius),
	// where a batch of one through the coordinator allocates ~13 times.
	nctx := ctx
	if spec.policy.PerNodeTimeout > 0 {
		var cancel context.CancelFunc
		nctx, cancel = context.WithTimeout(ctx, spec.policy.PerNodeTimeout)
		defer cancel()
	}
	var buf [32]core.Neighbor
	ns, err := s.n.SearchAppend(nctx, buf[:0], q, spec.params)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return Result{}, cerr
		}
		return Result{}, err
	}
	return Result{Matches: matchesFromLocal(0, ns)}, nil
}

// SearchBatch answers many queries in one parallel batch under one set of
// request-scoped options — the high-throughput path (the paper processes
// queries in batches of ≥30, trading ~45 ms of latency for maximal
// throughput). It is the coordinator's search over the Store as its one
// group, so the options, the failure policy and the Report (group 0, with
// one attempt when traced) are a Cluster's.
func (s *Store) SearchBatch(ctx context.Context, qs []Vector, opts ...SearchOption) ([]Result, Report, error) {
	return s.one.SearchBatch(ctx, qs, opts...)
}

// Delete marks a document ID deleted; it will no longer be returned.
// Deleting an ID that was never inserted — including any ID naming a
// node other than 0, which a Store cannot hold — returns ErrNotFound. On
// a durable Store the tombstone is journaled before Delete returns.
func (s *Store) Delete(ctx context.Context, id uint64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if nodeIdx, _ := SplitGlobalID(id); nodeIdx != 0 {
		return fmt.Errorf("plsh: store is node 0, id names node %d: %w", nodeIdx, ErrNotFound)
	}
	return s.n.Delete(uint32(id))
}

// Merge forces every document present at the time of the call into the
// static structure and returns once that fully merged state is reached.
// The merge itself runs on a background goroutine — concurrent queries
// and inserts are never blocked by it; only the Merge caller waits.
// Inserts trigger the same background merge automatically at the
// configured DeltaFraction.
func (s *Store) Merge(ctx context.Context) error { return s.n.MergeNow(ctx) }

// Flush waits for any in-flight background merge (automatic or forced) to
// finish without starting one — the barrier to call before reading settled
// Stats after a burst of inserts. It returns nil immediately when no merge
// is running.
func (s *Store) Flush(ctx context.Context) error { return s.n.Flush(ctx) }

// Reset erases all content, keeping configuration and hash functions. Any
// in-flight background merge is drained first — honoring ctx while
// waiting, like every other mutating call on the unified surface; a
// canceled drain returns ctx.Err() with the store untouched — so a nil
// return means the store is settled and empty. On a durable Store the
// erasure is journaled; a journal failure leaves the store untouched and
// is returned.
func (s *Store) Reset(ctx context.Context) error { return s.n.Retire(ctx) }

// Len returns the number of stored documents (including deleted ones,
// which still occupy capacity until Reset).
func (s *Store) Len() int { return s.n.Len() }

// Doc returns the stored vector for a global ID (shared storage; do not
// modify) and the node's authoritative answer to whether the ID was ever
// inserted — an inserted-but-empty document still reports true, and IDs
// never inserted (including any naming a node other than 0) report
// (zero Vector, false) instead of panicking.
func (s *Store) Doc(ctx context.Context, id uint64) (Vector, bool, error) {
	if err := ctx.Err(); err != nil {
		return Vector{}, false, err
	}
	if nodeIdx, _ := SplitGlobalID(id); nodeIdx != 0 {
		return Vector{}, false, nil
	}
	v, known := s.n.Doc(uint32(id))
	return v, known, nil
}

// Save forces a durable checkpoint of the Store's own data directory:
// every document is driven into the static structure (like Merge), the
// snapshot is written, and the write-ahead journal is truncated. Returns
// ErrNotDurable on a Store opened without a data directory; use SaveTo to
// export an in-memory Store.
func (s *Store) Save(ctx context.Context) error {
	return s.n.Save(ctx)
}

// SaveTo writes a quiesced snapshot of the Store into dir: every document
// is driven into the static structure (like Merge), then the arena,
// static buckets, tombstones, and hash parameters are serialized behind a
// versioned, checksummed header. Open on that dir reproduces the Store
// bit-identically, without rehashing. When dir is the Store's own
// Config.Dir this is exactly Save, journal truncation included; any other
// dir is an export/backup and leaves the journal alone.
func (s *Store) SaveTo(ctx context.Context, dir string) error {
	return s.n.SaveTo(ctx, dir)
}

// Close releases a durable Store's journal after waiting out any
// background merge (so its checkpoint lands). Queries keep working;
// further writes fail. A no-op for in-memory Stores.
func (s *Store) Close() error { return s.n.Close() }

// Stats returns one state snapshot per node — for a Store, exactly one,
// the uniform Index shape. Use StatsNow for the local convenience form.
func (s *Store) Stats(ctx context.Context) ([]Stats, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return []Stats{s.n.Stats()}, nil
}

// StatsNow returns the Store's state snapshot without the ceremony of the
// Index-shaped Stats — the common local-observability call.
func (s *Store) StatsNow() Stats { return s.n.Stats() }

// Config returns the (normalized) configuration the Store runs with.
func (s *Store) Config() Config { return s.cfg }
