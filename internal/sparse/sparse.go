// Package sparse provides the sparse-vector substrate PLSH is built on.
//
// Tweets are represented as sparse IDF-weighted unit vectors in a large
// vocabulary space (§8 of the paper: D ≈ 500,000 with ~7.2 non-zeros per
// tweet). The package supplies:
//
//   - Vector: a single sparse unit vector (sorted column indexes + values);
//   - Matrix: a Compressed-Sparse-Row (CRS/CSR, §5.1.1) collection of
//     vectors stored in one contiguous arena, the layout that bounds the
//     paper's Step Q3 at ~4 cache lines per candidate;
//   - dot-product kernels in the variants the paper's Figures 4 and 5
//     ablate: naive merge intersection, binary-search intersection, and the
//     query-side dense vocabulary mask with O(1) membership checks
//     (§5.2.3), plus 4-way unrolled sparse×dense kernels standing in for
//     the paper's SIMD vectorization.
package sparse

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Vector is a sparse vector: parallel slices of strictly increasing column
// indexes and their values. The zero value is the empty vector.
type Vector struct {
	Idx []uint32
	Val []float32
}

// NNZ returns the number of stored non-zeros.
func (v Vector) NNZ() int { return len(v.Idx) }

// Norm returns the Euclidean norm.
func (v Vector) Norm() float64 {
	var s float64
	for _, x := range v.Val {
		s += float64(x) * float64(x)
	}
	return math.Sqrt(s)
}

// Normalize scales v to unit norm in place. Zero vectors are left unchanged
// and reported with ok = false; the paper discards such "0-length queries"
// (§8) because they cannot match anything.
func (v Vector) Normalize() (ok bool) {
	n := v.Norm()
	if n == 0 {
		return false
	}
	inv := float32(1 / n)
	for i := range v.Val {
		v.Val[i] *= inv
	}
	return true
}

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	return Vector{Idx: append([]uint32(nil), v.Idx...), Val: append([]float32(nil), v.Val...)}
}

// ErrInvalid is wrapped by Check's errors: the vector cannot be hashed or
// stored, whatever the index holds.
var ErrInvalid = errors.New("sparse: invalid vector")

// Check reports whether v is addressable in a dim-dimensional space: one
// value per index and every column below dim. Vectors arrive from callers
// and off the wire, and everything past the entry points — hashing, the
// vocabulary mask, the arena — indexes by column without looking again.
func (v Vector) Check(dim int) error {
	if len(v.Idx) != len(v.Val) {
		return fmt.Errorf("%w: %d indexes, %d values", ErrInvalid, len(v.Idx), len(v.Val))
	}
	for _, c := range v.Idx {
		if uint64(c) >= uint64(dim) {
			return fmt.Errorf("%w: column %d outside dimension %d", ErrInvalid, c, dim)
		}
	}
	return nil
}

// CheckAll applies Check to every vector of a batch, naming the first
// offender by position.
func CheckAll(vs []Vector, dim int) error {
	for i := range vs {
		if err := vs[i].Check(dim); err != nil {
			return fmt.Errorf("vector %d: %w", i, err)
		}
	}
	return nil
}

// NewVector builds a Vector from unordered (index, value) pairs, sorting by
// index and summing duplicates. Entries that sum to zero are kept (they are
// harmless and rare); indexes must fit the caller's dimensionality.
func NewVector(idx []uint32, val []float32) (Vector, error) {
	if len(idx) != len(val) {
		return Vector{}, errors.New("sparse: index/value length mismatch")
	}
	type pair struct {
		i uint32
		v float32
	}
	pairs := make([]pair, len(idx))
	for i := range idx {
		pairs[i] = pair{idx[i], val[i]}
	}
	sort.Slice(pairs, func(a, b int) bool { return pairs[a].i < pairs[b].i })
	out := Vector{Idx: make([]uint32, 0, len(pairs)), Val: make([]float32, 0, len(pairs))}
	for _, p := range pairs {
		if n := len(out.Idx); n > 0 && out.Idx[n-1] == p.i {
			out.Val[n-1] += p.v
		} else {
			out.Idx = append(out.Idx, p.i)
			out.Val = append(out.Val, p.v)
		}
	}
	return out, nil
}

// Matrix is a CSR matrix over a fixed dimensionality. Rows share two
// contiguous arenas (cols, vals); offs[i]..offs[i+1] delimits row i. This is
// the "large pages / contiguous arena" document-store layout (§5.2.2): one
// allocation, predictable addresses, minimal pointer chasing.
type Matrix struct {
	Dim  int
	offs []int32
	cols []uint32
	vals []float32
}

// NewMatrix returns an empty CSR matrix with the given dimensionality and
// space reserved for nRows rows of nnzHint total non-zeros.
func NewMatrix(dim, nRows, nnzHint int) *Matrix {
	m := &Matrix{Dim: dim}
	m.offs = make([]int32, 1, nRows+1)
	m.cols = make([]uint32, 0, nnzHint)
	m.vals = make([]float32, 0, nnzHint)
	return m
}

// Rows returns the number of rows stored.
func (m *Matrix) Rows() int { return len(m.offs) - 1 }

// NNZ returns the total number of stored non-zeros.
func (m *Matrix) NNZ() int { return len(m.cols) }

// AppendRow appends v as a new row and returns its row index.
// It panics if any column index is outside [0, Dim).
func (m *Matrix) AppendRow(v Vector) int {
	for _, c := range v.Idx {
		if int(c) >= m.Dim {
			panic("sparse: column index out of range")
		}
	}
	m.cols = append(m.cols, v.Idx...)
	m.vals = append(m.vals, v.Val...)
	m.offs = append(m.offs, int32(len(m.cols)))
	return len(m.offs) - 2
}

// Row returns row i as a Vector sharing the matrix's storage. The caller
// must not modify it.
func (m *Matrix) Row(i int) Vector {
	lo, hi := m.offs[i], m.offs[i+1]
	return Vector{Idx: m.cols[lo:hi], Val: m.vals[lo:hi]}
}

// Prefix returns a read-only view of the first rows rows, sharing the
// receiver's arenas. The view is safe to read concurrently with further
// AppendRow calls on the receiver: appends only write beyond the captured
// lengths (or reallocate, leaving the captured arrays untouched), so a
// prefix taken while holding the writer's lock is an immutable snapshot.
// The view's capacities are clipped so an accidental append to it can never
// clobber the shared arenas. Callers must not modify the view's contents.
func (m *Matrix) Prefix(rows int) *Matrix {
	if rows < 0 || rows > m.Rows() {
		panic("sparse: prefix rows out of range")
	}
	nnz := m.offs[rows]
	return &Matrix{
		Dim:  m.Dim,
		offs: m.offs[: rows+1 : rows+1],
		cols: m.cols[:nnz:nnz],
		vals: m.vals[:nnz:nnz],
	}
}

// AppendMatrix appends every row of src (which must have the same Dim).
func (m *Matrix) AppendMatrix(src *Matrix) {
	if src.Dim != m.Dim {
		panic("sparse: dimension mismatch in AppendMatrix")
	}
	base := int32(len(m.cols))
	m.cols = append(m.cols, src.cols...)
	m.vals = append(m.vals, src.vals...)
	for _, o := range src.offs[1:] {
		m.offs = append(m.offs, base+o)
	}
}

// Raw exposes the CSR arrays — row offsets, column indexes, values — for
// serialization. Callers must not modify them, and for a live arena must
// call it on an immutable Prefix, not the append side.
func (m *Matrix) Raw() (offs []int32, cols []uint32, vals []float32) {
	return m.offs, m.cols, m.vals
}

// FromRaw builds a Matrix over pre-decoded CSR arrays, taking ownership of
// the slices. It validates the shape a deserialized arena must have —
// monotone offsets delimiting len(cols) == len(vals) non-zeros, and every
// row's column indexes strictly increasing within [0, dim) — so a corrupt
// or hand-edited snapshot is rejected instead of producing undefined query
// behavior.
func FromRaw(dim int, offs []int32, cols []uint32, vals []float32) (*Matrix, error) {
	if dim <= 0 {
		return nil, errors.New("sparse: FromRaw: non-positive dimension")
	}
	if len(offs) < 1 || offs[0] != 0 {
		return nil, errors.New("sparse: FromRaw: offsets must start at 0")
	}
	if len(cols) != len(vals) {
		return nil, errors.New("sparse: FromRaw: column/value length mismatch")
	}
	if int(offs[len(offs)-1]) != len(cols) {
		return nil, errors.New("sparse: FromRaw: final offset does not match non-zero count")
	}
	for i := 1; i < len(offs); i++ {
		if offs[i] < offs[i-1] {
			return nil, errors.New("sparse: FromRaw: offsets decrease")
		}
		if int(offs[i]) > len(cols) {
			return nil, errors.New("sparse: FromRaw: offset past the non-zero count")
		}
		for j := offs[i-1]; j < offs[i]; j++ {
			if int(cols[j]) >= dim {
				return nil, errors.New("sparse: FromRaw: column index out of range")
			}
			if j > offs[i-1] && cols[j] <= cols[j-1] {
				return nil, errors.New("sparse: FromRaw: column indexes not strictly increasing")
			}
		}
	}
	return &Matrix{Dim: dim, offs: offs, cols: cols, vals: vals}, nil
}

// Reset empties the matrix, retaining capacity.
func (m *Matrix) Reset() {
	m.offs = m.offs[:1]
	m.cols = m.cols[:0]
	m.vals = m.vals[:0]
}

// MemoryBytes reports the approximate arena footprint, used by the §7.3
// memory constraint.
func (m *Matrix) MemoryBytes() int64 {
	return int64(len(m.offs))*4 + int64(len(m.cols))*4 + int64(len(m.vals))*4
}

// Dot computes the dot product of two sorted sparse vectors by merge
// intersection. This is the paper's *unoptimized* sparse dot product (the
// baseline of Fig. 5's "+optimized sparse DP" step).
func Dot(a, b Vector) float64 {
	var s float64
	i, j := 0, 0
	for i < len(a.Idx) && j < len(b.Idx) {
		ai, bj := a.Idx[i], b.Idx[j]
		switch {
		case ai == bj:
			s += float64(a.Val[i]) * float64(b.Val[j])
			i++
			j++
		case ai < bj:
			i++
		default:
			j++
		}
	}
	return s
}

// DotBinary computes the same dot product by iterating the shorter vector
// and binary-searching the longer — the alternative naive scheme discussed
// in §5.2.3 ("perform a search for the corresponding index").
func DotBinary(a, b Vector) float64 {
	if len(a.Idx) > len(b.Idx) {
		a, b = b, a
	}
	var s float64
	lo := 0
	for i, ai := range a.Idx {
		j := lo + sort.Search(len(b.Idx)-lo, func(k int) bool { return b.Idx[lo+k] >= ai })
		if j < len(b.Idx) && b.Idx[j] == ai {
			s += float64(a.Val[i]) * float64(b.Val[j])
			lo = j + 1
		} else {
			lo = j
		}
		if lo >= len(b.Idx) {
			break
		}
	}
	return s
}

// AngularDistance returns the angle in radians between two unit vectors
// given their dot product, clamped into [0, π] against rounding drift.
func AngularDistance(dot float64) float64 {
	if dot > 1 {
		dot = 1
	} else if dot < -1 {
		dot = -1
	}
	return math.Acos(dot)
}

// CosThreshold converts an angular radius R into the equivalent dot-product
// threshold: angdist(q,v) ≤ R  ⇔  q·v ≥ cos(R). Comparing dots avoids an
// acos per candidate in the hot Q3 loop.
func CosThreshold(radius float64) float64 { return math.Cos(radius) }
