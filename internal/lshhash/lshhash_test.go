package lshhash

import (
	"math"
	"slices"
	"testing"

	"plsh/internal/corpus"
	"plsh/internal/rng"
	"plsh/internal/sched"
	"plsh/internal/sparse"
)

func testParams() Params { return Params{Dim: 500, K: 8, M: 6, Seed: 42} }

func TestParamsDerived(t *testing.T) {
	p := Params{Dim: 10, K: 16, M: 40}
	if p.L() != 780 {
		t.Fatalf("L = %d, want 780 (paper's operating point)", p.L())
	}
	if p.NumFuncs() != 320 {
		t.Fatalf("NumFuncs = %d, want 320", p.NumFuncs())
	}
	if p.Buckets() != 65536 || p.HalfBuckets() != 256 {
		t.Fatalf("Buckets = %d HalfBuckets = %d", p.Buckets(), p.HalfBuckets())
	}
}

func TestParamsValidate(t *testing.T) {
	bad := []Params{
		{Dim: 0, K: 8, M: 4},
		{Dim: 10, K: 7, M: 4},  // odd K
		{Dim: 10, K: 0, M: 4},  // K too small
		{Dim: 10, K: 42, M: 4}, // K too large
		{Dim: 10, K: 40, M: 4}, // K past a key's 32 bits
		{Dim: 10, K: 34, M: 4}, // the first even K that is
		{Dim: 10, K: 8, M: 1},  // M too small
	}
	for _, p := range bad {
		if p.Validate() == nil {
			t.Errorf("Validate accepted %+v", p)
		}
	}
	for _, p := range []Params{{Dim: 10, K: 8, M: 4}, {Dim: 10, K: 32, M: 4}} {
		if err := p.Validate(); err != nil {
			t.Errorf("Validate rejected good params %+v: %v", p, err)
		}
	}
}

func TestPairTableRoundTrip(t *testing.T) {
	for _, m := range []int{2, 3, 5, 16, 40} {
		pairs := Pairs(m)
		l := 0
		for a := 0; a < m; a++ {
			for b := a + 1; b < m; b++ {
				if got := TableForPair(a, b, m); got != l {
					t.Fatalf("TableForPair(%d,%d,%d) = %d, want %d", a, b, m, got, l)
				}
				ga, gb := PairForTable(l, m)
				if ga != a || gb != b {
					t.Fatalf("PairForTable(%d,%d) = (%d,%d), want (%d,%d)", l, m, ga, gb, a, b)
				}
				if want := (Pair{A: uint16(a), B: uint16(b)}); pairs[l] != want {
					t.Fatalf("Pairs(%d)[%d] = %+v, want %+v", m, l, pairs[l], want)
				}
				l++
			}
		}
		if l != m*(m-1)/2 || len(pairs) != l {
			t.Fatalf("enumerated %d pairs for m=%d, Pairs lists %d", l, m, len(pairs))
		}
	}
}

// TestFamilyDeterministic: a word's hyperplane row is its seed's and its
// word's, not its turn's — two families of one seed, one drawing its rows in
// the opposite order, hold every row equal — and another seed draws another
// row for every word. Whole rows are compared: two independent one-byte
// coefficients are equal about once in a hundred draws, a row of NumFuncs
// of them all equal never.
func TestFamilyDeterministic(t *testing.T) {
	f1, err := NewFamily(testParams())
	if err != nil {
		t.Fatal(err)
	}
	f2, _ := NewFamily(testParams())
	p3 := testParams()
	p3.Seed = 43
	f3, _ := NewFamily(p3)
	for c := 0; c < f1.p.Dim; c++ {
		f2.row(uint32(f1.p.Dim - 1 - c))
	}
	for c := 0; c < f1.p.Dim; c++ {
		r1, r2, r3 := f1.row(uint32(c)), f2.row(uint32(c)), f3.row(uint32(c))
		if !slices.Equal(r1, r2) {
			t.Fatalf("word %d: same-seed families draw different rows", c)
		}
		if slices.Equal(r1, r3) {
			t.Fatalf("word %d: seeds 42 and 43 draw the same row", c)
		}
	}
}

func TestSketchHalfRange(t *testing.T) {
	p := testParams()
	f, _ := NewFamily(p)
	src := rng.New(7)
	for trial := 0; trial < 50; trial++ {
		v := randUnit(src, p.Dim, 8)
		sk := f.Sketch(v)
		if len(sk) != p.M {
			t.Fatalf("sketch length %d", len(sk))
		}
		for _, u := range sk {
			if u >= uint32(p.HalfBuckets()) {
				t.Fatalf("half-hash %d exceeds %d", u, p.HalfBuckets())
			}
		}
	}
}

func TestScalarKernelMatchesSketchInto(t *testing.T) {
	p := testParams()
	f, _ := NewFamily(p)
	src := rng.New(9)
	scores := make([]float32, p.NumFuncs())
	a := make([]uint32, p.M)
	b := make([]uint32, p.M)
	for trial := 0; trial < 100; trial++ {
		v := randUnit(src, p.Dim, 1+src.Intn(12))
		f.SketchInto(v, scores, a)
		f.SketchScalarInto(v, scores, b)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("kernels disagree on u_%d: %d vs %d", i, a[i], b[i])
			}
		}
	}
}

// layoutParams are the geometries the packed-row tests run over: lanes 1,
// 4, 8 and 16 bits wide, half-keys narrower than their lane (K = 6, 30),
// odd M, and rows of one and of several words.
func layoutParams() []Params {
	return []Params{
		testParams(),
		{Dim: 500, K: 2, M: 67, Seed: 42},
		{Dim: 500, K: 6, M: 17, Seed: 42},
		{Dim: 500, K: 16, M: 9, Seed: 42},
		{Dim: 500, K: 30, M: 5, Seed: 42},
		{Dim: 500, K: 32, M: 7, Seed: 42},
	}
}

// checkRows holds every row of sks to the sketch f computes for row i of
// mat: At(i, j) is its half-key j, the row is Pack of it, and no bit
// outside the M lanes' low K/2 bits is set.
func checkRows(t *testing.T, f *Family, sks *Sketches, mat *sparse.Matrix) {
	t.Helper()
	p := f.Params()
	if sks.N() != mat.Rows() || len(sks.Data) != mat.Rows()*p.SketchWords() {
		t.Fatalf("%+v: N = %d over %d words, want %d rows", p, sks.N(), len(sks.Data), mat.Rows())
	}
	valid := make([]uint64, p.SketchWords())
	for j := range p.M {
		bit := j * p.LaneBits()
		valid[bit/64] |= (1<<uint(p.K/2) - 1) << uint(bit%64)
	}
	packed := make([]uint64, p.SketchWords())
	for i := range sks.N() {
		want := f.Sketch(mat.Row(i))
		for j := range want {
			if got := sks.At(i, j); got != want[j] {
				t.Fatalf("%+v: sketch %d fn %d = %d, want %d", p, i, j, got, want[j])
			}
		}
		p.Pack(packed, want)
		for w, word := range sks.Row(i) {
			if word != packed[w] {
				t.Fatalf("%+v: row %d word %d = %#x, Pack gives %#x", p, i, w, word, packed[w])
			}
			if word&^valid[w] != 0 {
				t.Fatalf("%+v: row %d word %d sets padding bits %#x", p, i, w, word&^valid[w])
			}
		}
	}
}

func TestSketchAllMatchesSingle(t *testing.T) {
	for _, p := range layoutParams() {
		f, _ := NewFamily(p)
		c := corpus.Generate(corpus.Twitter(300, p.Dim, 5))
		checkRows(t, f, f.SketchAll(c.Mat, sched.NewPool(4)), c.Mat)
	}
}

func TestAppendSketchesMatchesSketchAll(t *testing.T) {
	for _, p := range layoutParams() {
		f, _ := NewFamily(p)
		c := corpus.Generate(corpus.Twitter(50, p.Dim, 6))
		var vs []sparse.Vector
		for i := 0; i < 50; i++ {
			vs = append(vs, c.Mat.Row(i))
		}
		inc := f.AppendSketches(nil, vs[:20])
		inc = f.AppendSketches(inc, vs[20:])
		checkRows(t, f, inc, c.Mat)
		if all := f.SketchAll(c.Mat, sched.NewPool(1)); !slices.Equal(inc.Data, all.Data) {
			t.Fatalf("%+v: AppendSketches and SketchAll pack different rows", p)
		}
	}
}

func TestTableKey(t *testing.T) {
	s := Params{K: 8, M: 3}.NewSketches(1)
	s.Put(0, []uint32{0xA, 0xB, 0xC})
	if got := s.TableKey(0, 0, 2); got != 0xA<<4|0xC {
		t.Fatalf("TableKey = %#x", got)
	}
	if got := (Pair{A: 0, B: 2}).Key([]uint32{0xA, 0xB, 0xC}, 4); got != 0xA<<4|0xC {
		t.Fatalf("Pair.Key = %#x", got)
	}
}

// Empirical check of the Charikar collision probability: for pairs at angle
// t, each hash bit collides with probability ≈ 1 − t/π.
func TestCollisionProbabilityEmpirical(t *testing.T) {
	p := Params{Dim: 200, K: 2, M: 64, Seed: 11} // 64 bits to average over
	f, _ := NewFamily(p)
	src := rng.New(3)
	var sumErr float64
	trials := 60
	for trial := 0; trial < trials; trial++ {
		a := randUnit(src, p.Dim, 30)
		b := perturb(src, a, 0.35, p.Dim)
		dot := sparse.Dot(a, b)
		angle := sparse.AngularDistance(dot)
		ska, skb := f.Sketch(a), f.Sketch(b)
		agree := 0
		for i := range ska {
			if ska[i] == skb[i] {
				agree++
			}
		}
		got := float64(agree) / float64(len(ska))
		sumErr += math.Abs(got - CollisionProb(angle))
	}
	if avg := sumErr / float64(trials); avg > 0.12 {
		t.Fatalf("mean |empirical − 1+t/π| = %v, too large", avg)
	}
}

func randUnit(src *rng.Source, dim, nnz int) sparse.Vector {
	idx := make([]uint32, nnz)
	val := make([]float32, nnz)
	for i := range idx {
		idx[i] = uint32(src.Intn(dim))
		val[i] = float32(src.Norm())
	}
	v, _ := sparse.NewVector(idx, val)
	if !v.Normalize() {
		return randUnit(src, dim, nnz)
	}
	return v
}

// perturb returns a unit vector at a moderate angle from a by mixing in
// random noise.
func perturb(src *rng.Source, a sparse.Vector, noise float64, dim int) sparse.Vector {
	out := a.Clone()
	for i := range out.Val {
		out.Val[i] += float32(noise * src.Norm() * 0.3)
	}
	extra := randUnit(src, dim, 3)
	idx := append(append([]uint32(nil), out.Idx...), extra.Idx...)
	val := append(append([]float32(nil), out.Val...), extra.Val...)
	for i := len(out.Val); i < len(val); i++ {
		val[i] *= float32(noise)
	}
	v, _ := sparse.NewVector(idx, val)
	v.Normalize()
	return v
}

func TestRetrievalProbProperties(t *testing.T) {
	// P' in [0,1]; monotone increasing in m; decreasing in k; decreasing in t.
	for _, k := range []int{8, 12, 16} {
		for _, tt := range []float64{0.3, 0.6, 0.9, 1.2} {
			prev := -1.0
			for m := 2; m <= 60; m++ {
				p := RetrievalProb(tt, k, m)
				if p < 0 || p > 1 {
					t.Fatalf("P'(%v,%d,%d) = %v out of range", tt, k, m, p)
				}
				if p+1e-12 < prev {
					t.Fatalf("P' not monotone in m at (%v,%d,%d)", tt, k, m)
				}
				prev = p
			}
		}
	}
	if RetrievalProb(0.9, 12, 30) <= RetrievalProb(0.9, 16, 30) {
		t.Fatal("P' should decrease with k")
	}
	if RetrievalProb(0.5, 16, 30) <= RetrievalProb(1.0, 16, 30) {
		t.Fatal("P' should decrease with distance")
	}
}

func TestCollisionProbEdges(t *testing.T) {
	if CollisionProb(0) != 1 {
		t.Fatal("p(0) != 1")
	}
	if got := CollisionProb(math.Pi); got != 0 {
		t.Fatalf("p(π) = %v", got)
	}
	if CollisionProb(math.Pi+1) != 0 || CollisionProb(-0.1) != 1 {
		t.Fatal("clamping failed")
	}
}

func TestMinMForRecall(t *testing.T) {
	// Paper's operating point: R=0.9, δ=0.1, k=16 → m=40 suffices.
	m, ok := MinMForRecall(0.9, 0.1, 16, 64)
	if !ok {
		t.Fatal("no m found")
	}
	if RetrievalProb(0.9, 16, m) < 0.9 {
		t.Fatal("returned m violates the recall constraint")
	}
	if m > 2 && RetrievalProb(0.9, 16, m-1) >= 0.9 {
		t.Fatal("returned m is not minimal")
	}
	// Note: the paper runs (k=16, m=40), for which P'(0.9) ≈ 0.76 by its
	// own Eq. — the guarantee at exactly t=R needs m=57. The paper's 92%
	// empirical recall holds because real neighbors sit well inside R,
	// where P' is much higher. We assert the strict-formula value here.
	if m != 57 {
		t.Errorf("strict m for (R=0.9, δ=0.1, k=16) = %d, want 57", m)
	}
	if _, ok := MinMForRecall(0.9, 0.0001, 16, 3); ok {
		t.Fatal("impossible recall satisfied")
	}
}
