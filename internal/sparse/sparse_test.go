package sparse

import (
	"math"
	"testing"
	"testing/quick"

	"plsh/internal/rng"
)

func vec(pairs ...float32) Vector {
	// pairs alternates index, value.
	var v Vector
	for i := 0; i+1 < len(pairs); i += 2 {
		v.Idx = append(v.Idx, uint32(pairs[i]))
		v.Val = append(v.Val, pairs[i+1])
	}
	return v
}

func TestNewVectorSortsAndMerges(t *testing.T) {
	v, err := NewVector([]uint32{5, 1, 5, 3}, []float32{2, 1, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	wantIdx := []uint32{1, 3, 5}
	wantVal := []float32{1, 4, 5}
	if len(v.Idx) != 3 {
		t.Fatalf("got %v", v)
	}
	for i := range wantIdx {
		if v.Idx[i] != wantIdx[i] || v.Val[i] != wantVal[i] {
			t.Fatalf("NewVector = %v/%v, want %v/%v", v.Idx, v.Val, wantIdx, wantVal)
		}
	}
}

func TestNewVectorLengthMismatch(t *testing.T) {
	if _, err := NewVector([]uint32{1}, nil); err == nil {
		t.Fatal("expected error")
	}
}

func TestNormalize(t *testing.T) {
	v := vec(0, 3, 1, 4)
	if !v.Normalize() {
		t.Fatal("Normalize returned false for non-zero vector")
	}
	if math.Abs(v.Norm()-1) > 1e-6 {
		t.Fatalf("norm after Normalize = %v", v.Norm())
	}
	zero := Vector{}
	if zero.Normalize() {
		t.Fatal("Normalize returned true for zero vector")
	}
}

func TestDotVariantsAgree(t *testing.T) {
	src := rng.New(1)
	for trial := 0; trial < 200; trial++ {
		a := randVector(src, 1000, 1+src.Intn(20))
		b := randVector(src, 1000, 1+src.Intn(20))
		d1 := Dot(a, b)
		d2 := DotBinary(a, b)
		d3 := Dot(b, a)
		if math.Abs(d1-d2) > 1e-5 || math.Abs(d1-d3) > 1e-5 {
			t.Fatalf("dot variants disagree: merge=%v binary=%v swapped=%v", d1, d2, d3)
		}
	}
}

func randVector(src *rng.Source, dim, nnz int) Vector {
	idx := make([]uint32, nnz)
	val := make([]float32, nnz)
	for i := range idx {
		idx[i] = uint32(src.Intn(dim))
		val[i] = float32(src.Float64())
	}
	v, _ := NewVector(idx, val)
	v.Normalize()
	return v
}

func TestQueryMaskMatchesMergeDot(t *testing.T) {
	src := rng.New(2)
	qm := NewQueryMask(1000)
	for trial := 0; trial < 100; trial++ {
		q := randVector(src, 1000, 1+src.Intn(15))
		qm.Scatter(q)
		for inner := 0; inner < 10; inner++ {
			d := randVector(src, 1000, 1+src.Intn(15))
			got := qm.Dot(d.Idx, d.Val)
			want := Dot(q, d)
			if math.Abs(got-want) > 1e-5 {
				t.Fatalf("QueryMask.Dot = %v, want %v", got, want)
			}
		}
	}
	// After Unscatter, everything must be clean: dot with anything is 0.
	qm.Unscatter()
	d := randVector(src, 1000, 10)
	if qm.Dot(d.Idx, d.Val) != 0 {
		t.Fatal("mask not clean after Unscatter")
	}
}

func TestQueryMaskRescatterReplaces(t *testing.T) {
	qm := NewQueryMask(100)
	q1 := vec(1, 1, 2, 1)
	q2 := vec(3, 1)
	qm.Scatter(q1)
	qm.Scatter(q2) // implicit unscatter of q1
	if got := qm.Dot([]uint32{1, 2}, []float32{1, 1}); got != 0 {
		t.Fatalf("stale query values leaked: dot=%v", got)
	}
	if got := qm.Dot([]uint32{3}, []float32{2}); math.Abs(got-2) > 1e-6 {
		t.Fatalf("new query not visible: dot=%v", got)
	}
}

func TestMatrixRoundTrip(t *testing.T) {
	m := NewMatrix(100, 4, 16)
	rows := []Vector{vec(1, 0.5, 7, 0.5), vec(), vec(99, 1)}
	for i, r := range rows {
		if got := m.AppendRow(r); got != i {
			t.Fatalf("AppendRow returned %d, want %d", got, i)
		}
	}
	if m.Rows() != 3 || m.NNZ() != 3 {
		t.Fatalf("Rows=%d NNZ=%d", m.Rows(), m.NNZ())
	}
	for i, want := range rows {
		got := m.Row(i)
		if len(got.Idx) != len(want.Idx) {
			t.Fatalf("row %d: got %v want %v", i, got, want)
		}
		for j := range want.Idx {
			if got.Idx[j] != want.Idx[j] || got.Val[j] != want.Val[j] {
				t.Fatalf("row %d differs", i)
			}
		}
	}
}

func TestMatrixAppendRowOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for out-of-range column")
		}
	}()
	NewMatrix(10, 1, 1).AppendRow(vec(10, 1))
}

func TestAppendMatrix(t *testing.T) {
	a := NewMatrix(50, 2, 4)
	a.AppendRow(vec(1, 1))
	b := NewMatrix(50, 2, 4)
	b.AppendRow(vec(2, 2))
	b.AppendRow(vec(3, 3))
	a.AppendMatrix(b)
	if a.Rows() != 3 {
		t.Fatalf("Rows = %d, want 3", a.Rows())
	}
	if r := a.Row(2); len(r.Idx) != 1 || r.Idx[0] != 3 || r.Val[0] != 3 {
		t.Fatalf("row 2 = %v", r)
	}
}

func TestAppendMatrixDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for dim mismatch")
		}
	}()
	NewMatrix(10, 1, 1).AppendMatrix(NewMatrix(20, 1, 1))
}

func TestMatrixReset(t *testing.T) {
	m := NewMatrix(10, 1, 1)
	m.AppendRow(vec(1, 1))
	m.Reset()
	if m.Rows() != 0 || m.NNZ() != 0 {
		t.Fatal("Reset did not empty matrix")
	}
	m.AppendRow(vec(2, 2))
	if m.Rows() != 1 || m.Row(0).Idx[0] != 2 {
		t.Fatal("matrix unusable after Reset")
	}
}

func TestScatteredStoreMirrorsMatrix(t *testing.T) {
	src := rng.New(5)
	m := NewMatrix(200, 10, 100)
	for i := 0; i < 10; i++ {
		m.AppendRow(randVector(src, 200, 1+src.Intn(8)))
	}
	s := NewScatteredStore(m)
	if s.Rows() != m.Rows() || s.Dimension() != m.Dimension() {
		t.Fatal("shape mismatch")
	}
	for i := 0; i < m.Rows(); i++ {
		mi, mv := m.Doc(i)
		si, sv := s.Doc(i)
		if len(mi) != len(si) {
			t.Fatalf("doc %d length mismatch", i)
		}
		for j := range mi {
			if mi[j] != si[j] || mv[j] != sv[j] {
				t.Fatalf("doc %d differs at %d", i, j)
			}
		}
	}
}

func TestAngularDistance(t *testing.T) {
	cases := []struct{ dot, want float64 }{
		{1, 0}, {0, math.Pi / 2}, {-1, math.Pi},
		{1.0000001, 0}, {-1.0000001, math.Pi}, // clamped
	}
	for _, c := range cases {
		if got := AngularDistance(c.dot); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("AngularDistance(%v) = %v, want %v", c.dot, got, c.want)
		}
	}
}

func TestCosThresholdEquivalence(t *testing.T) {
	// angdist(q,v) ≤ R  ⇔  dot ≥ cos(R) for unit vectors.
	src := rng.New(6)
	const R = 0.9
	thr := CosThreshold(R)
	for trial := 0; trial < 500; trial++ {
		a := randVector(src, 300, 1+src.Intn(10))
		b := randVector(src, 300, 1+src.Intn(10))
		d := Dot(a, b)
		if (AngularDistance(d) <= R) != (d >= thr) {
			t.Fatalf("threshold equivalence violated at dot=%v", d)
		}
	}
}

// Property: Dot is symmetric and bounded by the product of norms.
func TestQuickDotCauchySchwarz(t *testing.T) {
	src := rng.New(7)
	f := func(seedA, seedB uint16) bool {
		a := randVector(src, 400, 1+int(seedA)%15)
		b := randVector(src, 400, 1+int(seedB)%15)
		d := Dot(a, b)
		if math.Abs(d-Dot(b, a)) > 1e-6 {
			return false
		}
		return math.Abs(d) <= a.Norm()*b.Norm()+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMemoryBytes(t *testing.T) {
	m := NewMatrix(10, 1, 1)
	m.AppendRow(vec(1, 1, 2, 1))
	want := int64(2*4 + 2*4 + 2*4) // offs(2) + cols(2) + vals(2), 4 bytes each
	if got := m.MemoryBytes(); got != want {
		t.Fatalf("MemoryBytes = %d, want %d", got, want)
	}
}

// Prefix must be a faithful read-only view of the first rows, immune to
// later appends on the parent (the snapshot contract the node relies on).
func TestMatrixPrefix(t *testing.T) {
	m := NewMatrix(10, 8, 8)
	mustRow := func(idx []uint32, val []float32) {
		t.Helper()
		v, err := NewVector(idx, val)
		if err != nil {
			t.Fatal(err)
		}
		m.AppendRow(v)
	}
	mustRow([]uint32{1, 3}, []float32{0.5, 0.5})
	mustRow([]uint32{2}, []float32{1})
	mustRow([]uint32{0, 9}, []float32{0.7, 0.3})

	p := m.Prefix(2)
	if p.Rows() != 2 || p.Dim != 10 {
		t.Fatalf("prefix shape %d×%d", p.Rows(), p.Dim)
	}
	// Appends to the parent must not change the view.
	mustRow([]uint32{5}, []float32{1})
	mustRow([]uint32{6}, []float32{1})
	if p.Rows() != 2 {
		t.Fatalf("prefix grew to %d rows after parent append", p.Rows())
	}
	for i := 0; i < 2; i++ {
		pr, mr := p.Row(i), m.Row(i)
		if len(pr.Idx) != len(mr.Idx) {
			t.Fatalf("row %d NNZ mismatch", i)
		}
		for j := range pr.Idx {
			if pr.Idx[j] != mr.Idx[j] || pr.Val[j] != mr.Val[j] {
				t.Fatalf("row %d entry %d differs", i, j)
			}
		}
	}
	// Full and empty prefixes are legal; out-of-range rows panic.
	if full := m.Prefix(m.Rows()); full.Rows() != 5 {
		t.Fatalf("full prefix rows = %d", full.Rows())
	}
	if empty := m.Prefix(0); empty.Rows() != 0 || empty.NNZ() != 0 {
		t.Fatal("empty prefix not empty")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Prefix did not panic")
		}
	}()
	m.Prefix(6)
}

// FromRaw is handed bytes from disk: every malformed shape is an error,
// including a row offset that overshoots the non-zeros before a later one
// comes back down — which used to index cols out of range.
func TestFromRawRejectsMalformed(t *testing.T) {
	cols, vals := []uint32{1, 2, 3, 4, 5}, []float32{1, 1, 1, 1, 1}
	if _, err := FromRaw(10, []int32{0, 2, 5}, cols, vals); err != nil {
		t.Fatalf("well-formed arrays rejected: %v", err)
	}
	for name, offs := range map[string][]int32{
		"no offsets":            {},
		"first offset not zero": {1, 5},
		"offsets decrease":      {0, 3, 2, 5},
		"offset overshoots":     {0, 100, 5},
		"final offset short":    {0, 2, 4},
		"negative offset":       {0, -1, 5},
	} {
		if _, err := FromRaw(10, offs, cols, vals); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := FromRaw(10, []int32{0, 5}, []uint32{1, 2, 3, 4, 10}, vals); err == nil {
		t.Error("column past dim: accepted")
	}
	if _, err := FromRaw(10, []int32{0, 5}, []uint32{1, 2, 2, 4, 5}, vals); err == nil {
		t.Error("repeated column: accepted")
	}
}
