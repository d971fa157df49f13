// Package oracle is the answer set the sketches fix, for tests. Under the
// all-pairs tables of §5.1 table (a, b) keys a row by its half-keys a and b,
// so a row shares a bucket with a query iff their sketches agree on at least
// 2 of the m half-keys, and it collides in C(agree, 2) tables. Buckets are
// exact, and every search checks every unique candidate's sign bits and
// computes the distance of each within lshhash.HammingBound of the query's,
// so each layer's answers are a pure function of the sketches, the radius
// and k (Shinde et al.'s TCAM formulation). An Oracle mirrors rows, their
// sketches and tombstones and answers from them alone: it reads no table,
// packs no sketch and runs no index code — it counts a Hamming distance as
// the popcounts of the half-keys' XORs.
package oracle

import (
	"cmp"
	"math/bits"
	"slices"

	"plsh/internal/lshhash"
	"plsh/internal/sparse"
)

// Neighbor is one answer: a row and its angular distance from the query.
type Neighbor struct {
	ID   uint32
	Dist float64
}

// Stats counts a search's work the way core.QueryStats does: Unique live
// candidates, Verified of them within the Hamming bound, Results of those
// within the radius (before any cut at k).
type Stats struct {
	Unique   int
	Verified int
	Results  int
}

// Oracle mirrors an index's rows under the IDs the index assigns them:
// row i is the i-th row added. Add and Delete must not race the queries;
// Candidates and Answers may run concurrently.
type Oracle struct {
	fam      *lshhash.Family
	rows     []sparse.Vector
	sketches [][]uint32
	deleted  []bool
}

// New mirrors rows, IDs 0 to len(rows)-1, hashed by fam.
func New(fam *lshhash.Family, rows ...sparse.Vector) *Oracle {
	o := &Oracle{fam: fam}
	o.Add(rows...)
	return o
}

// Add mirrors rows under the next IDs, in order.
func (o *Oracle) Add(rows ...sparse.Vector) {
	for _, v := range rows {
		o.rows = append(o.rows, v)
		o.sketches = append(o.sketches, o.fam.Sketch(v))
		o.deleted = append(o.deleted, false)
	}
}

// Delete tombstones row id. A tombstoned row is neither a candidate nor an
// answer: the oracle is the table a merge builds over the live rows, so a
// test of an index whose buckets still hold the row counts its collisions
// on an oracle without the tombstone.
func (o *Oracle) Delete(id uint32) { o.deleted[id] = true }

// Candidates returns the live rows that agree with q on at least 2
// half-keys, ascending, and the collision count Σ C(agree, 2): the
// deduplicated candidates and the summed bucket sizes of a probe of every
// table built over the live rows.
func (o *Oracle) Candidates(q sparse.Vector) ([]uint32, int) {
	qs := o.fam.Sketch(q)
	var ids []uint32
	collisions := 0
	for i, sk := range o.sketches {
		if o.deleted[i] {
			continue
		}
		agree := 0
		for j, h := range sk {
			if h == qs[j] {
				agree++
			}
		}
		if agree >= 2 {
			ids = append(ids, uint32(i))
			collisions += agree * (agree - 1) / 2
		}
	}
	return ids, collisions
}

// Answers returns the candidates within the Hamming bound of q's sketch
// and within radius of q, in ascending (distance, ID) order, cut at k when
// k > 0, with the search's Stats.
func (o *Oracle) Answers(q sparse.Vector, radius float64, k int) ([]Neighbor, Stats) {
	cand, _ := o.Candidates(q)
	qs := o.fam.Sketch(q)
	p := o.fam.Params()
	bound := lshhash.HammingBound(p.K, p.M, radius)
	thr := sparse.CosThreshold(radius)
	var out []Neighbor
	st := Stats{Unique: len(cand)}
	for _, id := range cand {
		ham := 0
		for j, h := range o.sketches[id] {
			ham += bits.OnesCount32(h ^ qs[j])
		}
		if ham > bound {
			continue
		}
		st.Verified++
		if dot := sparse.Dot(q, o.rows[id]); dot >= thr {
			out = append(out, Neighbor{ID: id, Dist: sparse.AngularDistance(dot)})
		}
	}
	st.Results = len(out)
	slices.SortFunc(out, func(a, b Neighbor) int {
		return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.ID, b.ID))
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out, st
}
