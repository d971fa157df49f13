// Package baseline implements the comparison algorithms of the paper's
// evaluation (§8.1, Table 2): exhaustive search and an inverted index.
//
// Both are deterministic comparators: they return the exact R-near-neighbor
// set, at the cost of one distance computation per document (exhaustive)
// or per candidate containing at least one query word (inverted index).
//
// Both are parallelized over queries, as the paper notes ("all algorithms
// have been parallelized to use multiple cores").
package baseline

import (
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
	return Result{Neighbors: core.ExactNeighbors(e.store, q, e.radius), DistComps: e.store.Rows()}
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
}

// invWorkspace is one query thread's private inverted-index probe state:
// owned accumulator buffers; answers are copied out before reuse.
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
	return inv
}

func (inv *Inverted) newWorkspace() *invWorkspace {
	return &invWorkspace{
		seen: bitvec.New(inv.store.Rows()),
		mask: sparse.NewQueryMask(inv.store.Dimension()),
	}
}

// Query gathers candidates from the query words' postings lists,
// deduplicates, and filters by distance. DistComps counts the unique
// candidates — the quantity Table 2 reports (the paper deliberately
// excludes candidate-generation time for the inverted index, so the
// distance-filter phase is also what our harness times).
func (inv *Inverted) Query(q sparse.Vector) Result {
	return inv.query(inv.newWorkspace(), q)
}

// query answers q in the caller's workspace.
func (inv *Inverted) query(ws *invWorkspace, q sparse.Vector) Result {
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

// QueryBatch answers the batch in parallel over queries, each worker in
// its own workspace, made on that worker's first query.
func (inv *Inverted) QueryBatch(qs []sparse.Vector) []Result {
	out := make([]Result, len(qs))
	ws := make([]*invWorkspace, inv.pool.Workers())
	inv.pool.Run(len(qs), func(task, worker int) {
		if ws[worker] == nil {
			ws[worker] = inv.newWorkspace()
		}
		out[task] = inv.query(ws[worker], qs[task])
	})
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
