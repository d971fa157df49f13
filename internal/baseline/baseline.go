// Package baseline implements the comparison algorithms of the paper's
// evaluation (§8.1, Table 2): exhaustive search, an inverted index, and a
// naive chained-bucket LSH.
//
// Exhaustive search and the inverted index are the deterministic
// comparators: both return the exact R-near-neighbor set, at the cost of
// one distance computation per document (exhaustive) or per candidate
// containing at least one query word (inverted index). The chained LSH is
// the "basic implementation" PLSH's 3.7×/8.3× speedups are measured
// against: dynamically grown buckets, per-table key computation, set-based
// duplicate elimination, and merge-intersection dot products.
//
// All three are parallelized over queries, as the paper notes ("all
// algorithms have been parallelized to use multiple cores").
package baseline

import (
	"sync"

	"plsh/internal/bitvec"
	"plsh/internal/core"
	"plsh/internal/sched"
	"plsh/internal/sparse"
)

// Result pairs a query's neighbors with the number of distance
// computations performed — the work measure of Table 2.
type Result struct {
	Neighbors []core.Neighbor
	DistComps int
}

// Exhaustive scans every document for every query.
type Exhaustive struct {
	store  sparse.Store
	radius float64
	pool   *sched.Pool
}

// NewExhaustive returns an exhaustive-search baseline.
func NewExhaustive(store sparse.Store, radius float64, workers int) *Exhaustive {
	return &Exhaustive{store: store, radius: radius, pool: sched.NewPool(workers)}
}

// Query scans all documents.
func (e *Exhaustive) Query(q sparse.Vector) Result {
	thr := sparse.CosThreshold(e.radius)
	var out []core.Neighbor
	n := e.store.Rows()
	for i := 0; i < n; i++ {
		idx, val := e.store.Doc(i)
		dot := sparse.Dot(q, sparse.Vector{Idx: idx, Val: val})
		if dot >= thr {
			out = append(out, core.Neighbor{ID: uint32(i), Dist: sparse.AngularDistance(dot)})
		}
	}
	return Result{Neighbors: out, DistComps: n}
}

// QueryBatch answers the batch in parallel over queries.
func (e *Exhaustive) QueryBatch(qs []sparse.Vector) []Result {
	out := make([]Result, len(qs))
	e.pool.Run(len(qs), func(task, _ int) { out[task] = e.Query(qs[task]) })
	return out
}

// Inverted is a word→documents index: a query's candidates are every
// document sharing at least one vocabulary term with it, filtered by the
// distance criterion (§8.1).
type Inverted struct {
	store    sparse.Store
	postings [][]uint32 // per word: sorted doc IDs
	radius   float64
	pool     *sched.Pool
	wsPool   sync.Pool
}

// invWorkspace is one query's private inverted-index probe state: owned
// accumulator buffers; answers are copied out before reuse.
type invWorkspace struct {
	seen *bitvec.Vector
	cand []uint32
	mask *sparse.QueryMask
}

// NewInverted builds the postings lists over every document in store.
func NewInverted(store sparse.Store, radius float64, workers int) *Inverted {
	inv := &Inverted{
		store:    store,
		postings: make([][]uint32, store.Dimension()),
		radius:   radius,
		pool:     sched.NewPool(workers),
	}
	for i := 0; i < store.Rows(); i++ {
		idx, _ := store.Doc(i)
		for _, w := range idx {
			inv.postings[w] = append(inv.postings[w], uint32(i))
		}
	}
	inv.wsPool.New = func() any {
		return &invWorkspace{
			seen: bitvec.New(store.Rows()),
			mask: sparse.NewQueryMask(store.Dimension()),
		}
	}
	return inv
}

// PostingsFor returns the documents containing word w (shared storage).
func (inv *Inverted) PostingsFor(w uint32) []uint32 { return inv.postings[w] }

// Query gathers candidates from the query words' postings lists,
// deduplicates, and filters by distance. DistComps counts the unique
// candidates — the quantity Table 2 reports (the paper deliberately
// excludes candidate-generation time for the inverted index, so the
// distance-filter phase is also what our harness times).
func (inv *Inverted) Query(q sparse.Vector) Result {
	ws := inv.wsPool.Get().(*invWorkspace)
	defer inv.wsPool.Put(ws)
	ws.cand = ws.cand[:0]
	for _, w := range q.Idx {
		for _, id := range inv.postings[w] {
			if ws.seen.TestAndSet(int(id)) {
				ws.cand = append(ws.cand, id)
			}
		}
	}
	ws.seen.ResetList(ws.cand)

	thr := sparse.CosThreshold(inv.radius)
	ws.mask.Scatter(q)
	var out []core.Neighbor
	for _, id := range ws.cand {
		idx, val := inv.store.Doc(int(id))
		dot := ws.mask.Dot(idx, val)
		if dot >= thr {
			out = append(out, core.Neighbor{ID: id, Dist: sparse.AngularDistance(dot)})
		}
	}
	ws.mask.Unscatter()
	return Result{Neighbors: out, DistComps: len(ws.cand)}
}

// QueryBatch answers the batch in parallel over queries.
func (inv *Inverted) QueryBatch(qs []sparse.Vector) []Result {
	out := make([]Result, len(qs))
	inv.pool.Run(len(qs), func(task, _ int) { out[task] = inv.Query(qs[task]) })
	return out
}

// MemoryBytes reports the postings footprint.
func (inv *Inverted) MemoryBytes() int64 {
	var b int64
	for _, p := range inv.postings {
		b += int64(cap(p)) * 4
	}
	return b
}
