package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"plsh"
	"plsh/internal/sparse"
)

// dotSlack absorbs the float32 rounding difference between the engine's
// masked dot product and the oracle's merge dot product when a match is
// re-verified against the radius.
const dotSlack = 1e-4

// selfTieDist is how far from the query a full top-k answer's last match
// may be for a missing self-match to be excused: k other documents tie
// with the query at distance ≈ 0 (exact duplicates), and ties break by ID.
const selfTieDist = 1e-3

// mirror is the client-side record of every acknowledged write: which
// corpus row each global ID holds and which rows were deleted when. The
// writer appends and the searchers verify concurrently, so every cell is
// an atomic; the tables are sized up front and never grow.
type mirror struct {
	docs  []sparse.Vector
	epoch time.Time
	// rowOf[group][local] is the corpus row + 1 (0: never acknowledged).
	rowOf [][]atomic.Int32
	// idOf[row] is the global ID + 1 (0: not acknowledged).
	idOf []atomic.Uint64
	// del[row] is 0 while live, -1 once a Delete was issued, and the
	// acknowledgement time (ns since epoch, > 0) once it returned.
	del  []atomic.Int64
	rows atomic.Int64 // acknowledged documents
	dels atomic.Int64 // acknowledged deletes

	attempted atomic.Int64
	failed    atomic.Int64
	firstMu   sync.Mutex
	first     string // first failure, for the log
}

func newMirror(docs []sparse.Vector, groups int) *mirror {
	m := &mirror{docs: docs, epoch: time.Now(), rowOf: make([][]atomic.Int32, groups)}
	for g := range m.rowOf {
		m.rowOf[g] = make([]atomic.Int32, len(docs))
	}
	m.idOf = make([]atomic.Uint64, len(docs))
	m.del = make([]atomic.Int64, len(docs))
	return m
}

func (m *mirror) now() int64 { return int64(time.Since(m.epoch)) + 1 }

func (m *mirror) fail(format string, args ...any) {
	m.failed.Add(1)
	m.firstMu.Lock()
	if m.first == "" {
		m.first = fmt.Sprintf(format, args...)
	}
	m.firstMu.Unlock()
}

// acknowledge records an Insert's answer: ids parallel the corpus rows
// [row0, row0+len(ids)).
func (m *mirror) acknowledge(row0 int, ids []uint64) {
	for i, id := range ids {
		g, local := plsh.SplitGlobalID(id)
		if g >= len(m.rowOf) || int(local) >= len(m.rowOf[g]) {
			m.fail("insert returned id %d outside the fleet's id space", id)
			continue
		}
		m.rowOf[g][local].Store(int32(row0+i) + 1)
		m.idOf[row0+i].Store(id + 1)
	}
	m.rows.Add(int64(len(ids)))
}

func (m *mirror) id(row int) (uint64, bool) {
	v := m.idOf[row].Load()
	return v - 1, v != 0
}

func (m *mirror) liveDocs() int64 { return m.rows.Load() - m.dels.Load() }

// checkAnswer verifies one query's answer. qRow is the corpus row the
// query vector was taken from, started the mirror clock reading taken
// before the call, k the request's top-k bound (0: unbounded). It counts
// one attempted operation and at most one failure.
func (m *mirror) checkAnswer(qRow int, started int64, k int, matches []plsh.Match) {
	m.attempted.Add(1)
	q := m.docs[qRow]
	self, selfKnown := m.id(qRow)
	foundSelf := false
	thr := sparse.CosThreshold(radius) - dotSlack
	for _, mt := range matches {
		if selfKnown && mt.ID == self {
			foundSelf = true
		}
		g, local := plsh.SplitGlobalID(mt.ID)
		if g >= len(m.rowOf) || int(local) >= len(m.rowOf[g]) {
			m.fail("search returned unknown id %d", mt.ID)
			return
		}
		r := int(m.rowOf[g][local].Load()) - 1
		if r < 0 {
			// Acknowledgement races the answer: the node held the document
			// before Insert returned to the writer. Not a failure.
			continue
		}
		if dot := sparse.Dot(q, m.docs[r]); dot < thr {
			m.fail("search returned id %d at recomputed distance %.4f, outside radius %.2f", mt.ID, sparse.AngularDistance(dot), radius)
			return
		}
		if d := m.del[r].Load(); d > 0 && d < started {
			m.fail("search returned id %d, whose delete was acknowledged before the search began", mt.ID)
			return
		}
	}
	if !selfKnown || foundSelf || m.del[qRow].Load() != 0 {
		return
	}
	if k > 0 && len(matches) == k && matches[k-1].Dist <= selfTieDist {
		return
	}
	m.fail("acknowledged document %d (row %d) did not find itself", self, qRow)
}

// countOp records an operation with no answer to verify (an Insert, a
// Delete); err != nil is its failure.
func (m *mirror) countOp(err error, what string) {
	m.attempted.Add(1)
	if err != nil {
		m.fail("%s: %v", what, err)
	}
}

// exhaustive returns, for query row qRow, how many live acknowledged
// documents lie within the radius — the denominator of recall. Call it
// only at quiescence.
func (m *mirror) exhaustive(qRow int) int {
	q := m.docs[qRow]
	thr := sparse.CosThreshold(radius)
	n := 0
	for r := range m.docs {
		if m.idOf[r].Load() == 0 || m.del[r].Load() != 0 {
			continue
		}
		if sparse.Dot(q, m.docs[r]) >= thr {
			n++
		}
	}
	return n
}

// recallAudit queries the index at quiescence with recallQueries rows
// spaced evenly over the base set, verifies each answer, and returns
// Σ returned ÷ Σ exhaustive in-radius (against the exhaustive top-k when
// the workload bounds its answers). The rows are the same for every seed:
// on a read-only workload recall is then a property of the code alone, and
// any movement is a change in what the index retrieves, not in which
// queries were drawn. The exhaustive scans run on all cores; the searches
// are sequential.
func recallAudit(ctx context.Context, idx plsh.Index, m *mirror, in *inputs, k int, opts []plsh.SearchOption) (float64, error) {
	n := min(in.sz.recallQueries, in.sz.n0)
	row := func(i int) int { return i * in.sz.n0 / n }
	want := make([]int, n)
	var wg sync.WaitGroup
	workers := nproc()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				want[i] = m.exhaustive(row(i))
			}
		}(w)
	}
	wg.Wait()
	var got, total int
	for i := 0; i < n; i++ {
		qRow := row(i)
		started := m.now()
		res, err := idx.Search(ctx, m.docs[qRow], opts...)
		if err != nil {
			return 0, err
		}
		m.checkAnswer(qRow, started, k, res.Matches)
		if k > 0 {
			want[i] = min(want[i], k)
		}
		got += min(len(res.Matches), want[i])
		total += want[i]
	}
	if total == 0 {
		return math.NaN(), nil
	}
	return float64(got) / float64(total), nil
}
