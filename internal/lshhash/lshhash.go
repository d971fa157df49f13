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
//
// The hyperplanes are a Dim × M·k/2 matrix by definition, but a Family holds
// only the rows of the words it has hashed: each vocabulary row is its own
// random stream off the seed, drawn the first time a sketch touches the word
// (Family), and each coefficient is held as one signed byte, the Gaussian
// draw rounded to 1/32 of its standard deviation. A family over a
// 500 000-word vocabulary costs a pointer a word until documents arrive,
// and then M·k/2 bytes per distinct word seen.
package lshhash

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync/atomic"
	"unsafe"

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
	// [2, 32] — a table key is a uint32 (Pair.Key) — and the paper uses 16.
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

// keyBits is the width of a table key, and so the largest K: Pair.Key and
// Sketches.TableKey compose the key in a uint32.
const keyBits = 32

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	switch {
	case p.Dim <= 0:
		return errors.New("lshhash: Dim must be positive")
	case p.K < 2 || p.K > keyBits:
		return fmt.Errorf("lshhash: K = %d out of range [2, %d]", p.K, keyBits)
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

// Family is the hash family of one Params: M·K/2 Gaussian hyperplanes over
// a Dim-word vocabulary, stored by vocabulary row — row c holds every
// hyperplane's coefficient for word c, contiguously, so that hashing reads
// one contiguous row per document non-zero (§5.1.1's access-pattern
// argument: the sparse matrix is read consecutively and at least one dense
// row is read consecutively).
//
// A coefficient is one int8: the standard normal draw g rounded to
// quantize(g) = clamp(round(32·g), −127, 127), so a row is M·K/2 bytes.
// The sketch kernels scale each document value by 1/32 — a power of two,
// so exact — which puts a score back on the scale of a float hyperplane's,
// N(0, ‖v‖²) to within the rounding: the router's flip model reads the
// scores as margins (internal/cluster, routing.go). A sign bit differs from
// the unrounded family's for about 0.3 % of bits over the tweet corpus
// (TestQuantizedFamilyMatchesGaussian).
//
// A row exists once some sketch has touched its word. Row c is the stream
// rng.New(rowSeed(Seed, c)) whoever draws it and whenever, so two families
// of equal Params hash identically whatever each has seen; rows holds one
// pointer per word, nil until the row is drawn and never changed after.
// All methods are safe for concurrent use.
type Family struct {
	p     Params
	pairs []Pair
	rows  []atomic.Pointer[int8] // first coefficient of each drawn row
	drawn atomic.Int64           // rows drawn, for MemoryBytes
}

// coefScale is the steps a coefficient takes per standard deviation, and
// valueScale its inverse, which the sketch kernels multiply each document
// value by.
const (
	coefScale  = 32
	valueScale = 1.0 / coefScale
)

// quantize returns the stored coefficient of the Gaussian draw g,
// clamp(round(32·g), −127, 127) with halves rounded away from zero, as
// math.Round rounds. It rounds in integers: with t = trunc(64·g), which is
// exact, round(32·g) is (t + sign(t)) / 2 truncated toward zero, so
// nothing branches on the draw but the clamp, which one draw in 14 000
// takes. (math.Round and float clamps took a third of drawing a row.)
func quantize(g float64) int8 {
	x := 2 * coefScale * g
	if x > 254 {
		x = 254
	} else if x < -254 {
		x = -254
	}
	t := int64(x)
	return int8((t + (t>>63 | 1)) / 2)
}

// NewFamily returns the Family of p. It draws nothing: see Family.
func NewFamily(p Params) (*Family, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Family{p: p, pairs: Pairs(p.M), rows: make([]atomic.Pointer[int8], p.Dim)}, nil
}

// rowSeed is the seed of vocabulary row c's stream: output c of the master
// stream rng.New(seed), which is what drawing every row's seed in order
// hands row c.
func rowSeed(seed uint64, c uint32) uint64 {
	master := rng.New(seed)
	master.Skip(uint64(c))
	return master.Uint64()
}

// row returns the NumFuncs coefficients of word c.
func (f *Family) row(c uint32) []int8 {
	first := f.rows[c].Load()
	if first == nil {
		first = f.drawRow(c)
	}
	return unsafe.Slice(first, f.p.NumFuncs())
}

// drawRow draws and publishes row c — the cold side of row, kept out of line
// so that a sketch over drawn rows allocates nothing. Two sketches meeting a
// new word at once both draw it, identically; the first to publish wins and
// the other's copy is garbage.
//
//go:noinline
func (f *Family) drawRow(c uint32) *int8 {
	row := make([]int8, f.p.NumFuncs())
	src := rng.New(rowSeed(f.p.Seed, c))
	for j := range row {
		row[j] = quantize(src.Norm())
	}
	if f.rows[c].CompareAndSwap(nil, &row[0]) {
		f.drawn.Add(1)
		return &row[0]
	}
	return f.rows[c].Load()
}

// Params returns the family's parameters.
func (f *Family) Params() Params { return f.p }

// Pairs returns Pairs(M), computed once by NewFamily. The slice is shared
// and read-only; the static engine's and the delta tables' per-query probe
// loops both key their tables from it.
func (f *Family) Pairs() []Pair { return f.pairs }

// MemoryBytes reports the hyperplane storage footprint: the rows drawn so
// far, a byte a coefficient, and the pointer per vocabulary word that finds
// them. It grows with the distinct words hashed — documents' and queries'
// alike — up to the Dim·NumFuncs of the whole matrix.
func (f *Family) MemoryBytes() int64 {
	return f.drawn.Load()*int64(f.p.NumFuncs()) + int64(len(f.rows))*8
}

// SketchInto computes the m half-hashes u_1..u_m of v into out (length ≥ M),
// using scores (length ≥ NumFuncs) as scratch, which it leaves holding each
// hyperplane's score. The vectorized kernel accumulates all hyperplane
// columns per non-zero, 4-way unrolled (axpy).
func (f *Family) SketchInto(v sparse.Vector, scores []float32, out []uint32) {
	scores = scores[:f.p.NumFuncs()]
	clear(scores)
	for i, c := range v.Idx {
		axpy(v.Val[i]*valueScale, f.row(c), scores)
	}
	packSigns(scores, f.p.K/2, out[:f.p.M])
}

// axpy adds a·x to y element by element (len(y) ≥ len(x)): one non-zero's
// contribution to every hash function's score at once. x is the non-zero's
// row of the hyperplane matrix, contiguous — the spatial locality §5.1.1
// prescribes ("at least one row of the dense matrix is read consecutively")
// — and the four-way unroll across columns is the portable stand-in for the
// paper's SIMD hashing (Fig. 4, "+vectorization"). A coefficient becomes a
// float through coefValue, a load from one cache-resident kilobyte, which
// measured faster than converting it (DESIGN "What the heap holds…").
func axpy(a float32, x []int8, y []float32) {
	y = y[:len(x)]
	j := 0
	for ; j+4 <= len(x); j += 4 {
		y[j] += a * coefValue[uint8(x[j])]
		y[j+1] += a * coefValue[uint8(x[j+1])]
		y[j+2] += a * coefValue[uint8(x[j+2])]
		y[j+3] += a * coefValue[uint8(x[j+3])]
	}
	for ; j < len(x); j++ {
		y[j] += a * coefValue[uint8(x[j])]
	}
}

// coefValue[uint8(c)] is float32(c) for every int8 c.
var coefValue = func() (v [256]float32) {
	for i := range v {
		v[i] = float32(int8(i))
	}
	return v
}()

// SketchScalarInto is the unoptimized hashing kernel: one pass over the
// document per elementary hash function, reading a single coefficient of
// each row, exactly how a naive implementation computes each dot product
// independently. It exists as the pre-"+vectorization" arm of the Fig. 4
// ablation (internal/expr), and lives here because only this package can
// read a row, drawing it on first use. Its sums are SketchInto's, term for
// term, so its sketches are too.
func (f *Family) SketchScalarInto(v sparse.Vector, scores []float32, out []uint32) {
	nf := f.p.NumFuncs()
	for j := 0; j < nf; j++ {
		var s float32
		for i, c := range v.Idx {
			s += v.Val[i] * valueScale * float32(f.row(c)[j])
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

// A packed sketch is a row's M·K/2 sign bits as ⌈M·w/64⌉ words, half-key i
// in the w bits at bit i·w, w the smallest power of two ≥ K/2: a lane never
// straddles a word, and the bits of a lane above K/2 are zero in every
// packed sketch, so the popcount of two packed sketches' XOR is their
// Hamming distance over the M·K/2 bits. At K = M = 16 a row packs into 2
// words. It is the one form a stored sketch takes (Sketches): the build
// partitions by its lanes, core keeps it per indexed row as the column
// Verify reads to drop a candidate whose distance to the query exceeds
// HammingBound before it reads the document, and a delta segment rebuckets
// from it.

// LaneBits returns w, the bits a half-key's lane takes in a packed sketch.
func (p Params) LaneBits() int { return 1 << bits.Len(uint(p.K/2-1)) }

// SketchWords returns the words of one packed sketch.
func (p Params) SketchWords() int { return (p.M*p.LaneBits() + 63) / 64 }

// Pack packs sketch (M half-keys) into dst, which must hold SketchWords
// words; it writes every one of them.
func (p Params) Pack(dst []uint64, sketch []uint32) {
	w := uint(p.LaneBits())
	dst = dst[:p.SketchWords()]
	clear(dst)
	for i, h := range sketch[:p.M] {
		bit := uint(i) * w
		dst[bit/64] |= uint64(h) << (bit % 64)
	}
}

// WordLanes returns the half-keys [lo, hi) whose lanes sit in word w of a
// packed sketch. lo is even: at most 16 bits a lane, a word holds a whole
// number of lane pairs.
func (p Params) WordLanes(w int) (lo, hi int) {
	per := 64 / p.LaneBits()
	return w * per, min((w+1)*per, p.M)
}

// Sketches stores the packed sketches of N items contiguously: item n is
// Data[n·W : (n+1)·W], W = SketchWords. Make one with Params.NewSketches,
// SketchAll or AppendSketches; the geometry it reads its lanes by is fixed
// then.
type Sketches struct {
	Data  []uint64
	p     Params
	words int    // SketchWords
	lane  uint   // LaneBits
	half  uint   // K/2
	mask  uint64 // a half-key's K/2 bits
}

// NewSketches returns n zero sketches of p's geometry.
func (p Params) NewSketches(n int) *Sketches {
	return &Sketches{Data: make([]uint64, n*p.SketchWords()), p: p, words: p.SketchWords(), lane: uint(p.LaneBits()), half: uint(p.K / 2), mask: 1<<uint(p.K/2) - 1}
}

// N returns the number of sketched items.
func (s *Sketches) N() int { return len(s.Data) / s.words }

// At returns u_i of item n.
func (s *Sketches) At(n, i int) uint32 {
	bit := uint(i) * s.lane
	return uint32(s.Data[n*s.words+int(bit/64)] >> (bit % 64) & s.mask)
}

// Row returns item n's packed sketch, SketchWords words.
func (s *Sketches) Row(n int) []uint64 { return s.Data[n*s.words : (n+1)*s.words] }

// TableKey composes the K-bit key of item n in the table for pair (a, b).
func (s *Sketches) TableKey(n, a, b int) uint32 {
	return s.At(n, a)<<s.half | s.At(n, b)
}

// Put packs sketch (M half-keys) into item n.
func (s *Sketches) Put(n int, sketch []uint32) { s.p.Pack(s.Row(n), sketch) }

// OrKey sets the bits of key, a K-bit key of the table of the pair (a,
// a+1), in item n: its high K/2 bits in u_a, its low K/2 in u_(a+1). a must
// be even, so both lanes lie in one word (WordLanes), which one OR writes.
func (s *Sketches) OrKey(n, a int, key uint32) {
	bit := uint(a) * s.lane
	lanes := uint64(key>>s.half) | uint64(key)&s.mask<<s.lane
	s.Data[n*s.words+int(bit/64)] |= lanes << (bit % 64)
}

// SketchAll hashes every row of mat in parallel over the pool with
// SketchInto, packing each sketch as it is hashed. Rows are independent, so
// a static split suffices (§5.1.1: "easily parallelized over the data items
// N, yielding good thread scaling").
func (f *Family) SketchAll(mat *sparse.Matrix, pool *sched.Pool) *Sketches {
	n := mat.Rows()
	out := f.p.NewSketches(n)
	pool.Static(n, func(lo, hi, _ int) {
		scores := make([]float32, f.p.NumFuncs())
		sketch := make([]uint32, f.p.M)
		for i := lo; i < hi; i++ {
			f.SketchInto(mat.Row(i), scores, sketch)
			out.Put(i, sketch)
		}
	})
	return out
}

// AppendSketches extends dst (nil for a new set) with the packed sketch of
// each vector in vs, returning the (possibly reallocated) sketch set. Used
// by delta tables as streaming inserts arrive.
func (f *Family) AppendSketches(dst *Sketches, vs []sparse.Vector) *Sketches {
	if dst == nil {
		dst = f.p.NewSketches(0)
	}
	scores := make([]float32, f.p.NumFuncs())
	sketch := make([]uint32, f.p.M)
	dst.Data = slices.Grow(dst.Data, len(vs)*dst.words)
	for _, v := range vs {
		f.SketchInto(v, scores, sketch)
		dst.Data = dst.Data[:len(dst.Data)+dst.words]
		dst.Put(dst.N()-1, sketch)
	}
	return dst
}
