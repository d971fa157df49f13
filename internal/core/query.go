package core

import (
	"slices"
	"sync"
	"sync/atomic"

	"plsh/internal/bitvec"
	"plsh/internal/lshhash"
	"plsh/internal/sched"
	"plsh/internal/sparse"
)

// Neighbor is one query answer: a document index and its angular distance.
type Neighbor struct {
	ID   uint32
	Dist float64
}

// QueryOptions configures an Engine. The zero value is the serving query
// path of §5.2 — bitvector dedup, extraction to a sorted candidate array,
// the scattered-mask dot product — at the paper's radius on GOMAXPROCS
// workers, and QueryDefaults returns it with that radius spelled out.
// Fig. 5's less optimized arms are built from this package's exported
// pieces in internal/expr.
type QueryOptions struct {
	// Radius is the R-near-neighbor radius in radians; <= 0 means the
	// paper's 0.9.
	Radius float64
	// Workers sets the pool size for batch queries; <= 0 means GOMAXPROCS.
	Workers int
	// CollectPhases accumulates per-phase wall time into Engine.Phases().
	CollectPhases bool
}

// QueryDefaults returns the serving query options with the paper's radius.
func QueryDefaults() QueryOptions { return QueryOptions{Radius: 0.9} }

// SearchParams are the request-scoped knobs of one query. The engine's
// QueryOptions fix its radius and workers at construction; SearchParams
// override the one value that heterogeneous traffic wants to vary per
// request without rebuilding anything. The zero value means "use the
// engine's configured defaults".
type SearchParams struct {
	// Radius overrides QueryOptions.Radius for this query when > 0. The
	// hash tables are radius-agnostic (only candidate filtering uses it),
	// so any radius is answerable by any engine; recall guarantees still
	// assume the (k, m) geometry was tuned for a radius near this one.
	Radius float64
}

// QueryStats counts the work a query performed, matching the quantities of
// the §7 model: Collisions is the total bucket-entry count over all L
// tables (duplicates included); Unique is the live unique candidates
// (deduplicated candidates minus tombstoned ones), each of which the
// sign-bit check reads; Verified is those of them within the Hamming bound,
// whose documents are read and whose dot products are computed; Results is
// the answer count.
type QueryStats struct {
	Collisions int
	Unique     int
	Verified   int
	Results    int
}

// PhaseTimes accumulates wall time (ns) by query phase across an Engine's
// lifetime (only when CollectPhases is set). Workers run concurrently, so
// these are summed-across-workers phase times, suitable for the relative
// attribution of Fig. 6.
type PhaseTimes struct {
	Q2NS int64 // bucket reads + duplicate elimination (+ extraction scan)
	Q3NS int64 // sign-bit check + candidate fetch + distance computation
}

// Engine answers R-near-neighbor queries against a Static index and a
// document store. Engines are safe for arbitrary concurrent use; query
// workspaces (candidate bitvector, vocabulary mask) are recycled through a
// sync.Pool, the Go analogue of the paper's per-thread private bitvectors.
type Engine struct {
	st      *Static
	store   sparse.Store
	opts    QueryOptions
	bound   int     // HammingBound at opts.Radius
	thr     float64 // CosThreshold(opts.Radius)
	pool    *sched.Pool
	deleted *bitvec.Vector
	wsPool  sync.Pool
	q2ns    atomic.Int64
	q3ns    atomic.Int64
}

// Workspace is one in-flight query's private state: the query's sketch,
// packed sketch and scattered vocabulary mask (Step Q1, done once by Begin)
// plus the scratch of Step Q2. The node layer probes its delta segments
// through Probe and verifies them under the query's one Filter, under the
// same Begin — so a query is hashed and scattered once and deduplicates in
// one private bitvector however many structures it visits. Every field is
// the workspace's own memory; nothing
// caller-visible is ever stored in it.
type Workspace struct {
	seen   *bitvec.Vector
	cand   []uint32
	lo, hi []uint32 // the probe's staged bucket bounds, one per table
	first  []uint32 // and each bucket's staged first item
	mask   *sparse.QueryMask
	scores []float32
	sketch []uint32
	signs  []uint64 // sketch, packed (lshhash.Params.Pack)
}

// Filter is what Verify holds a candidate to, resolved once a query: the
// query's packed sketch and the Hamming bound T its candidates must be
// within, then its scattered vocabulary mask and the cosine threshold of
// the radius its answers must be within. Engine.Filter makes it; a caller
// may raise Bound to the sketch's M·K/2 bits to verify every candidate, as
// Fig. 5's rows before the sign-bit check do (internal/expr). The slices are
// the workspace's, valid until End.
type Filter struct {
	Signs []uint64
	Bound int
	Mask  *sparse.QueryMask
	Thr   float64
}

// Segment is a further structure probed under a workspace's Begin: the
// node's delta segments. Candidates appends the deduplicated local ids of
// the rows colliding with sketch to cand, marking each in seen (at least
// Len bits, all zero on entry).
type Segment interface {
	Len() int
	Candidates(sketch []uint32, seen *bitvec.Vector, cand []uint32) ([]uint32, int)
}

// Probe gathers t's candidates for the query ws was begun with into the
// workspace's own Step Q2 scratch and returns them, valid until the next
// Probe, SearchOn or End. Between probes the dedup bitvector is all zero —
// SearchOn and Probe each clear exactly the bits they set — which is what
// lets one bitvector serve the static index and every segment in turn.
func (ws *Workspace) Probe(t Segment) []uint32 {
	ws.seen = ws.seen.Grow(t.Len())
	ws.cand, _ = t.Candidates(ws.sketch, ws.seen, ws.cand[:0])
	ws.seen.ResetList(ws.cand)
	return ws.cand
}

// NewEngine builds a query engine. The store must hold exactly the
// documents the index was built over (store row i ↔ index item i).
func NewEngine(st *Static, store sparse.Store, opts QueryOptions) *Engine {
	if opts.Radius <= 0 {
		opts.Radius = 0.9
	}
	p := st.fam.Params()
	e := &Engine{
		st:    st,
		store: store,
		opts:  opts,
		bound: lshhash.HammingBound(p.K, p.M, opts.Radius),
		thr:   sparse.CosThreshold(opts.Radius),
		pool:  sched.NewPool(opts.Workers),
	}
	e.wsPool.New = func() any {
		return &Workspace{
			seen:   bitvec.New(st.Len()),
			lo:     make([]uint32, st.NumTables()),
			hi:     make([]uint32, st.NumTables()),
			first:  make([]uint32, st.NumTables()),
			mask:   sparse.NewQueryMask(store.Dimension()),
			scores: make([]float32, p.NumFuncs()),
			sketch: make([]uint32, p.M),
			signs:  make([]uint64, p.SketchWords()),
		}
	}
	return e
}

// Pool exposes the engine's worker pool so callers (the node layer) can
// schedule combined static+delta batches on it.
func (e *Engine) Pool() *sched.Pool { return e.pool }

// SetDeleted installs the deletion bitvector consulted before distance
// computation (§6.2). Pass nil to clear. The vector is read, not copied,
// and is consulted with atomic loads, so callers may keep setting bits
// (via SetAtomic) concurrently with queries — the tombstone contract of
// the node's snapshot concurrency model. SetDeleted itself must still be
// called before the engine is shared with readers.
func (e *Engine) SetDeleted(del *bitvec.Vector) { e.deleted = del }

// Phases returns accumulated per-phase times.
func (e *Engine) Phases() PhaseTimes {
	return PhaseTimes{Q2NS: e.q2ns.Load(), Q3NS: e.q3ns.Load()}
}

// ResetPhases zeroes the phase accumulators.
func (e *Engine) ResetPhases() {
	e.q2ns.Store(0)
	e.q3ns.Store(0)
}

// SearchAppend answers a single query under request-scoped parameters,
// appending the answers to dst and returning the extended slice (the
// append contract of strconv.AppendInt and friends). Passing a slice with
// spare capacity makes the call allocation-free once the engine's pooled
// workspace is warm; the caller owns dst and everything returned. Answers
// come in no promised order — callers wanting the canonical order apply
// SortNeighbors to the appended suffix, and cut it at k if bounded.
func (e *Engine) SearchAppend(dst []Neighbor, q sparse.Vector, p SearchParams) ([]Neighbor, QueryStats) {
	if e.st.Len() == 0 || q.NNZ() == 0 {
		return dst, QueryStats{}
	}
	ws := e.Begin(q)
	res, stats := e.SearchOn(dst, ws, e.Filter(ws, p))
	e.End(ws)
	return res, stats
}

// Begin takes a workspace from the engine's pool and runs Step Q1 on it:
// q is hashed into the workspace's sketch, which is packed, and scattered
// into its mask (cheap; the paper ignores its cost too). q must be
// non-empty. Every Begin is paired with one End.
func (e *Engine) Begin(q sparse.Vector) *Workspace {
	ws := e.wsPool.Get().(*Workspace)
	e.st.fam.SketchInto(q, ws.scores, ws.sketch)
	e.st.fam.Params().Pack(ws.signs, ws.sketch)
	ws.mask.Scatter(q)
	return ws
}

// Filter resolves the request's radius for the query ws was begun with: its
// Hamming bound and cosine threshold — the engine's own, computed once at
// NewEngine, unless p overrides the radius, when they are computed here
// without allocating.
func (e *Engine) Filter(ws *Workspace, p SearchParams) Filter {
	f := Filter{Signs: ws.signs, Bound: e.bound, Mask: ws.mask, Thr: e.thr}
	if p.Radius > 0 && p.Radius != e.opts.Radius {
		fp := e.st.fam.Params()
		f.Bound, f.Thr = lshhash.HammingBound(fp.K, fp.M, p.Radius), sparse.CosThreshold(p.Radius)
	}
	return f
}

// End clears the mask Begin scattered and returns the workspace to the
// pool. The caller must not touch ws, its sketch or its mask afterwards.
func (e *Engine) End(ws *Workspace) {
	ws.mask.Unscatter()
	e.wsPool.Put(ws)
}

// SearchOn runs Steps Q2–Q4 over the static index for the query ws was
// begun with, under f (Engine.Filter), appending answers to dst. It only
// sequences the kernels of kernels.go: it calls ProbeMark, the extraction
// scan and Verify, and — under CollectPhases — reads the clock around Q2
// and Q3, so Phases reports exactly the kernels' time.
func (e *Engine) SearchOn(dst []Neighbor, ws *Workspace, f Filter) ([]Neighbor, QueryStats) {
	var stats QueryStats
	if e.st.Len() == 0 {
		return dst, stats
	}
	var t0 int64
	if e.opts.CollectPhases {
		t0 = now()
	}

	// Step Q2: mark the buckets of all L tables in the dedup bitvector, then
	// scan it to a sorted candidate array (§5.2.2) and clear what was set.
	tables, pairs := e.st.tables, e.st.fam.Pairs()
	half := uint(e.st.fam.Params().K / 2)
	stats.Collisions = ProbeMark(tables, pairs, ws.sketch, half, ws.lo, ws.hi, ws.first, ws.seen.Words())
	ws.cand = ws.seen.AppendSet(ws.cand[:0])
	ws.seen.ResetList(ws.cand)
	if e.opts.CollectPhases {
		t1 := now()
		e.q2ns.Add(t1 - t0)
		t0 = t1
	}

	// Steps Q3+Q4: the sign-bit check, then distance computation and the
	// radius filter over the candidates it keeps.
	base := len(dst)
	dst, stats.Unique, stats.Verified = Verify(dst, ws.cand, 0, e.st.signs, e.store, e.deleted, f)
	if e.opts.CollectPhases {
		e.q3ns.Add(now() - t0)
	}
	stats.Results = len(dst) - base
	return dst, stats
}

// SearchBatchAppend answers a batch in parallel, reusing dst: entry i is
// rewritten in place as append(dst[i][:0], answers...), so a caller that
// holds one dst across batches reaches a zero-allocation steady state once
// every entry has grown to its working capacity. dst is extended with nil
// entries if shorter than qs; the returned slice (always len(qs)) and its
// entries are owned by the caller. Workers write disjoint entries, so the
// usual batch parallelism applies unchanged.
func (e *Engine) SearchBatchAppend(dst [][]Neighbor, qs []sparse.Vector, p SearchParams) [][]Neighbor {
	for len(dst) < len(qs) {
		dst = append(dst, nil)
	}
	dst = dst[:len(qs)]
	e.pool.Run(len(qs), func(task, worker int) {
		dst[task], _ = e.SearchAppend(dst[task][:0], qs[task], p)
	})
	return dst
}

// SortNeighbors orders neighbors by ascending distance, breaking ties by ID
// — a stable presentation order for callers and tests. slices.SortFunc
// rather than sort.Slice: the generic path sorts in place with no
// per-call allocation, which matters on the hot path (one sort per query
// per node).
func SortNeighbors(ns []Neighbor) {
	slices.SortFunc(ns, func(a, b Neighbor) int {
		if a.Dist != b.Dist {
			if a.Dist < b.Dist {
				return -1
			}
			return 1
		}
		if a.ID < b.ID {
			return -1
		}
		if a.ID > b.ID {
			return 1
		}
		return 0
	})
}

// ExactNeighbors computes the ground-truth answer by exhaustive scan over
// the store — the reference used by recall tests. It ignores the index.
func ExactNeighbors(store sparse.Store, q sparse.Vector, radius float64) []Neighbor {
	thr := sparse.CosThreshold(radius)
	var out []Neighbor
	for i := 0; i < store.Rows(); i++ {
		idx, val := store.Doc(i)
		dot := sparse.Dot(q, sparse.Vector{Idx: idx, Val: val})
		if dot >= thr {
			out = append(out, Neighbor{ID: uint32(i), Dist: sparse.AngularDistance(dot)})
		}
	}
	return out
}
