// Package lshhash implements the angular-distance LSH family and the
// all-pairs hashing scheme of the paper's §3.
//
// Each elementary hash h_a(v) = sign(a·v) for a random Gaussian hyperplane
// a collides for two unit vectors at angle t with probability
// p(t) = 1 − t/π (Charikar, STOC 2002). The all-pairs scheme draws m
// functions u_1..u_m of k/2 bits each and forms the L = m(m−1)/2 table
// hashes g_{a,b} = (u_a, u_b) for a < b, reducing query hashing cost from
// O(NNZ·k·L) to O(NNZ·k·√L + L) and — crucially for the 2-level table
// construction of §5.1.2 — making every table's k-bit key the concatenation
// of two reusable k/2-bit halves.
package lshhash

import (
	"errors"
	"fmt"

	"plsh/internal/rng"
	"plsh/internal/sched"
	"plsh/internal/sparse"
)

// Params identifies an LSH family instance. Two nodes constructed with the
// same Params produce identical hashes, which multi-node operation relies
// on only for reproducibility (each node hashes its own data independently).
type Params struct {
	// Dim is the dimensionality D of the vector space.
	Dim int
	// K is the number of bits indexing one hash table; must be even and in
	// [2, 40] (2^(K/2) first-level partitions must fit comfortably in
	// memory; the paper uses K = 16).
	K int
	// M is the number of K/2-bit functions u_i; L = M(M−1)/2 tables.
	M int
	// Seed determines the hyperplanes.
	Seed uint64
}

// L returns the number of hash tables m(m−1)/2.
func (p Params) L() int { return p.M * (p.M - 1) / 2 }

// NumFuncs returns the number of elementary hash bits M·K/2.
func (p Params) NumFuncs() int { return p.M * p.K / 2 }

// Buckets returns the number of buckets per table, 2^K.
func (p Params) Buckets() int { return 1 << uint(p.K) }

// HalfBuckets returns the number of first-level partitions, 2^(K/2).
func (p Params) HalfBuckets() int { return 1 << uint(p.K/2) }

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	switch {
	case p.Dim <= 0:
		return errors.New("lshhash: Dim must be positive")
	case p.K < 2 || p.K > 40:
		return fmt.Errorf("lshhash: K = %d out of range [2, 40]", p.K)
	case p.K%2 != 0:
		return fmt.Errorf("lshhash: K = %d must be even", p.K)
	case p.M < 2:
		return fmt.Errorf("lshhash: M = %d must be at least 2", p.M)
	}
	return nil
}

// TableForPair returns the table index l for the pair (a, b), a < b < m,
// enumerating pairs in lexicographic order.
func TableForPair(a, b, m int) int {
	return a*(2*m-a-1)/2 + (b - a - 1)
}

// PairForTable inverts TableForPair with an O(m) search — for cold callers
// (builds, tests). Per-query code reads Family.Pairs instead.
func PairForTable(l, m int) (a, b int) {
	for a = 0; ; a++ {
		rowLen := m - a - 1
		if l < rowLen {
			return a, a + 1 + l
		}
		l -= rowLen
	}
}

// Pair names the two half-hash functions u_A, u_B (A < B) whose
// concatenation keys one table.
type Pair struct {
	A, B uint16
}

// Key composes the table's K-bit key from a sketch (the m half-hashes of
// one vector); half is K/2.
func (p Pair) Key(sketch []uint32, half uint) uint32 {
	return sketch[p.A]<<half | sketch[p.B]
}

// Pairs lists the Pair of every table 0..L−1 in TableForPair order:
// Pairs(m)[l] equals PairForTable(l, m). A Family builds it once
// (Family.Pairs); call it directly only where there is no family.
func Pairs(m int) []Pair {
	pairs := make([]Pair, 0, m*(m-1)/2)
	for a := 0; a < m; a++ {
		for b := a + 1; b < m; b++ {
			pairs = append(pairs, Pair{A: uint16(a), B: uint16(b)})
		}
	}
	return pairs
}

// Family holds the drawn hyperplanes. The dense plane matrix is stored
// row-major by vocabulary entry — planes[c*NumFuncs+j] is hyperplane j's
// coefficient for word c — so that hashing touches one contiguous slab per
// document non-zero (§5.1.1's access-pattern argument: the sparse matrix is
// read consecutively and at least one dense row is read consecutively).
type Family struct {
	p      Params
	planes []float32
	pairs  []Pair
}

// NewFamily draws a Family from p.Seed.
func NewFamily(p Params) (*Family, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	nf := p.NumFuncs()
	f := &Family{p: p, planes: make([]float32, p.Dim*nf), pairs: Pairs(p.M)}
	// Deterministic parallel fill: one split stream per vocabulary row.
	master := rng.New(p.Seed)
	rowSeeds := make([]uint64, p.Dim)
	for c := range rowSeeds {
		rowSeeds[c] = master.Uint64()
	}
	pool := sched.NewPool(0)
	pool.Static(p.Dim, func(lo, hi, _ int) {
		for c := lo; c < hi; c++ {
			src := rng.New(rowSeeds[c])
			row := f.planes[c*nf : (c+1)*nf]
			for j := range row {
				row[j] = float32(src.Norm())
			}
		}
	})
	return f, nil
}

// Params returns the family's parameters.
func (f *Family) Params() Params { return f.p }

// Pairs returns Pairs(M), computed once by NewFamily. The slice is shared
// and read-only; the static engine's and the delta tables' per-query probe
// loops both key their tables from it.
func (f *Family) Pairs() []Pair { return f.pairs }

// MemoryBytes reports the hyperplane storage footprint.
func (f *Family) MemoryBytes() int64 { return int64(len(f.planes)) * 4 }

// SketchInto computes the m half-hashes u_1..u_m of v into out (length ≥ M),
// using scores (length ≥ NumFuncs) as scratch. The vectorized kernel
// processes all hyperplane columns per non-zero with 4-way unrolling.
func (f *Family) SketchInto(v sparse.Vector, scores []float32, out []uint32) {
	nf := f.p.NumFuncs()
	scores = scores[:nf]
	for j := range scores {
		scores[j] = 0
	}
	sparse.DotSparseDenseStride(v.Idx, v.Val, f.planes, nf, nf, scores)
	packSigns(scores, f.p.K/2, out[:f.p.M])
}

// SketchScalarInto is the unoptimized hashing kernel: one strided pass over
// the plane matrix per elementary hash function, exactly how a naive
// implementation computes each dot product independently. It exists as the
// pre-"+vectorization" arm of the Fig. 4 ablation.
func (f *Family) SketchScalarInto(v sparse.Vector, scores []float32, out []uint32) {
	nf := f.p.NumFuncs()
	for j := 0; j < nf; j++ {
		var s float32
		for i, c := range v.Idx {
			s += v.Val[i] * f.planes[int(c)*nf+j]
		}
		scores[j] = s
	}
	packSigns(scores[:nf], f.p.K/2, out[:f.p.M])
}

// Sketch computes and returns the half-hashes of v.
func (f *Family) Sketch(v sparse.Vector) []uint32 {
	out := make([]uint32, f.p.M)
	scores := make([]float32, f.p.NumFuncs())
	f.SketchInto(v, scores, out)
	return out
}

// packSigns packs consecutive groups of half bits (sign(score) ≥ 0 → 1)
// into the output half-hashes, least significant bit first.
func packSigns(scores []float32, half int, out []uint32) {
	for i := range out {
		var u uint32
		base := i * half
		for j := 0; j < half; j++ {
			if scores[base+j] >= 0 {
				u |= 1 << uint(j)
			}
		}
		out[i] = u
	}
}

// Sketches stores the half-hashes of N items contiguously:
// Data[n*M+i] = u_i(item n).
type Sketches struct {
	M    int
	Data []uint32
}

// N returns the number of sketched items.
func (s *Sketches) N() int {
	if s.M == 0 {
		return 0
	}
	return len(s.Data) / s.M
}

// At returns u_i of item n.
func (s *Sketches) At(n, i int) uint32 { return s.Data[n*s.M+i] }

// Row returns the m half-hashes of item n.
func (s *Sketches) Row(n int) []uint32 { return s.Data[n*s.M : (n+1)*s.M] }

// TableKey composes the K-bit key of item n in the table for pair (a, b).
func (s *Sketches) TableKey(n, a, b, k int) uint32 {
	return s.At(n, a)<<uint(k/2) | s.At(n, b)
}

// SketchAll hashes every row of mat in parallel over the pool, with the
// vectorized or scalar kernel (the Fig. 4 "+vectorization" toggle). Rows
// are independent, so a static split suffices (§5.1.1: "easily parallelized
// over the data items N, yielding good thread scaling").
func (f *Family) SketchAll(mat *sparse.Matrix, pool *sched.Pool, vectorized bool) *Sketches {
	n := mat.Rows()
	out := &Sketches{M: f.p.M, Data: make([]uint32, n*f.p.M)}
	pool.Static(n, func(lo, hi, _ int) {
		scores := make([]float32, f.p.NumFuncs())
		for i := lo; i < hi; i++ {
			row := mat.Row(i)
			dst := out.Data[i*f.p.M : (i+1)*f.p.M]
			if vectorized {
				f.SketchInto(row, scores, dst)
			} else {
				f.SketchScalarInto(row, scores, dst)
			}
		}
	})
	return out
}

// AppendSketches extends dst with sketches for each vector in vs, returning
// the (possibly reallocated) sketch set. Used by delta tables as streaming
// inserts arrive.
func (f *Family) AppendSketches(dst *Sketches, vs []sparse.Vector) *Sketches {
	if dst == nil {
		dst = &Sketches{M: f.p.M}
	}
	scores := make([]float32, f.p.NumFuncs())
	buf := make([]uint32, f.p.M)
	for _, v := range vs {
		f.SketchInto(v, scores, buf)
		dst.Data = append(dst.Data, buf...)
	}
	return dst
}
