package lshhash

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"plsh/internal/corpus"
	"plsh/internal/rng"
	"plsh/internal/sparse"
)

// eagerFamily is the family as NewFamily built it before rows were drawn on
// demand: every row seed taken from the master stream in order, every row
// drawn from its seed and rounded to its bytes, the matrix one row-major
// slab. It lives in test files only, as the specification the on-demand
// rows are checked against and the other arm of BenchmarkSketchInto.
type eagerFamily struct {
	p        Params
	rowSeeds []uint64
	planes   []int8 // nil until drawAll
}

func newEagerFamily(p Params) *eagerFamily {
	e := &eagerFamily{p: p, rowSeeds: make([]uint64, p.Dim)}
	master := rng.New(p.Seed)
	for c := range e.rowSeeds {
		e.rowSeeds[c] = master.Uint64()
	}
	return e
}

// drawRow fills row with word c's coefficients: each draw times 32, rounded
// half away from zero and held to ±127.
func (e *eagerFamily) drawRow(c int, row []int8) {
	src := rng.New(e.rowSeeds[c])
	for j := range row {
		x := math.Round(32 * src.Norm())
		switch {
		case x > 127:
			x = 127
		case x < -127:
			x = -127
		}
		row[j] = int8(x)
	}
}

func (e *eagerFamily) drawAll() {
	nf := e.p.NumFuncs()
	e.planes = make([]int8, e.p.Dim*nf)
	for c := 0; c < e.p.Dim; c++ {
		e.drawRow(c, e.planes[c*nf:(c+1)*nf])
	}
}

// sketchInto is SketchInto over the slab, with the kernel it ran
// (sparse.DotSparseDenseStride, since replaced by axpy over rows), each
// value scaled by 1/32 first.
func (e *eagerFamily) sketchInto(v sparse.Vector, scores []float32, out []uint32) {
	nf := e.p.NumFuncs()
	scores = scores[:nf]
	clear(scores)
	for i, c := range v.Idx {
		a := v.Val[i] / 32
		row := e.planes[int(c)*nf : int(c)*nf+nf]
		j := 0
		for ; j+4 <= nf; j += 4 {
			scores[j] += a * float32(row[j])
			scores[j+1] += a * float32(row[j+1])
			scores[j+2] += a * float32(row[j+2])
			scores[j+3] += a * float32(row[j+3])
		}
		for ; j < nf; j++ {
			scores[j] += a * float32(row[j])
		}
	}
	packSigns(scores, e.p.K/2, out[:e.p.M])
}

// routerParams is the shape of cluster.NewRouter's routing family: K = 2, so
// each half-hash is one sign bit.
func routerParams(dim int, seed uint64) Params {
	return Params{Dim: dim, K: 2, M: 8, Seed: seed}
}

// TestLazyRowsMatchEagerDraw: a row drawn on first use holds exactly the
// bytes the draw-everything loop put there — every row of a small
// vocabulary, a sample of the suite's, two seeds, the table and the router
// geometries — and asking again returns the same row.
func TestLazyRowsMatchEagerDraw(t *testing.T) {
	for _, seed := range []uint64{1, 0xfeedface} {
		for _, p := range []Params{
			{Dim: 2000, K: 8, M: 6, Seed: seed},
			{Dim: 50000, K: 16, M: 16, Seed: seed},
			routerParams(2000, seed),
			routerParams(50000, seed),
		} {
			f, err := NewFamily(p)
			if err != nil {
				t.Fatal(err)
			}
			ref := newEagerFamily(p)
			words := make([]int, p.Dim)
			rng.New(seed + 5).Perm(words) // the order words are first seen in
			if p.Dim > 2000 {
				words = words[:1000]
			}
			want := make([]int8, p.NumFuncs())
			for _, c := range words {
				ref.drawRow(c, want)
				got := f.row(uint32(c))
				if !slices.Equal(got, want) {
					t.Fatalf("%+v: row %d drawn on demand differs from the eager draw", p, c)
				}
				if again := f.row(uint32(c)); &again[0] != &got[0] {
					t.Fatalf("%+v: row %d drawn twice", p, c)
				}
			}
			wantBytes := int64(len(words))*int64(p.NumFuncs()) + int64(p.Dim)*8
			if got := f.MemoryBytes(); got != wantBytes {
				t.Fatalf("%+v: MemoryBytes = %d after %d rows, want %d", p, got, len(words), wantBytes)
			}
		}
	}
}

// TestSketchesMatchEagerFamily: sketches — what the index is built from —
// are those of the eager family's slab kernel, scalar arm included.
func TestSketchesMatchEagerFamily(t *testing.T) {
	p := Params{Dim: 2000, K: 16, M: 6, Seed: 3}
	f, err := NewFamily(p)
	if err != nil {
		t.Fatal(err)
	}
	ref := newEagerFamily(p)
	ref.drawAll()
	col := corpus.Generate(corpus.Twitter(400, p.Dim, 9))
	scores := make([]float32, p.NumFuncs())
	got, scalar, want := make([]uint32, p.M), make([]uint32, p.M), make([]uint32, p.M)
	for i := 0; i < col.Mat.Rows(); i++ {
		v := col.Mat.Row(i)
		f.SketchInto(v, scores, got)
		f.SketchScalarInto(v, scores, scalar)
		ref.sketchInto(v, scores, want)
		if !slices.Equal(got, want) || !slices.Equal(scalar, want) {
			t.Fatalf("document %d: sketch %v (scalar %v), eager family %v", i, got, scalar, want)
		}
	}
}

// TestConcurrentFirstUse: goroutines that meet the same never-seen words at
// the same time all compute the sketches a lone caller would, and each word
// ends with one row. Run under -race: the publication is the only
// synchronization there is.
func TestConcurrentFirstUse(t *testing.T) {
	p := Params{Dim: 5000, K: 16, M: 8, Seed: 21}
	col := corpus.Generate(corpus.Twitter(300, p.Dim, 4))
	distinct := map[uint32]bool{}
	for i := 0; i < col.Mat.Rows(); i++ {
		for _, c := range col.Mat.Row(i).Idx {
			distinct[c] = true
		}
	}
	alone, _ := NewFamily(p)
	want := make([][]uint32, col.Mat.Rows())
	for i := range want {
		want[i] = alone.Sketch(col.Mat.Row(i))
	}

	const workers = 8
	f, _ := NewFamily(p)
	start := make(chan struct{})
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scores := make([]float32, p.NumFuncs())
			got := make([]uint32, p.M)
			<-start
			for i := range want {
				f.SketchInto(col.Mat.Row(i), scores, got)
				if !slices.Equal(got, want[i]) && errs[w] == nil {
					errs[w] = fmt.Errorf("worker %d document %d: sketch %v, alone %v", w, i, got, want[i])
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if got := f.drawn.Load(); got != int64(len(distinct)) {
		t.Fatalf("%d rows survive for %d distinct words", got, len(distinct))
	}
	if got, want := f.MemoryBytes(), alone.MemoryBytes(); got != want {
		t.Fatalf("MemoryBytes = %d, a lone caller's family holds %d", got, want)
	}
}

// BenchmarkNewFamily is what opening a family costs at the suite's
// vocabulary and at plsh-node's default: no hyperplane is drawn, so both the
// time and the bytes are the pointer table's.
func BenchmarkNewFamily(b *testing.B) {
	for _, dim := range []int{50000, 500000} {
		b.Run(fmt.Sprintf("%dk", dim/1000), func(b *testing.B) {
			var f *Family
			for i := 0; i < b.N; i++ {
				f, _ = NewFamily(Params{Dim: dim, K: 16, M: 16, Seed: 1})
			}
			b.ReportMetric(float64(f.MemoryBytes()), "family-bytes")
			b.ReportMetric(float64(dim)*float64(f.p.NumFuncs()), "eager-bytes")
		})
	}
}

// BenchmarkSketchInto puts a number on the load the on-demand rows add to
// every non-zero — the row's pointer, then the row — against the flat slab
// the eager family indexed: the same documents, every row already drawn, at
// the suite's geometry. FirstUse starts from a family that has hashed
// nothing every 4096 documents, so it pays for each word's row where the
// word first appears — what a node's first inserts cost.
func BenchmarkSketchInto(b *testing.B) {
	p := Params{Dim: 50000, K: 16, M: 16, Seed: 1}
	col := corpus.Generate(corpus.Twitter(4096, p.Dim, 1))
	docs := make([]sparse.Vector, col.Mat.Rows())
	nnz := 0
	for i := range docs {
		docs[i] = col.Mat.Row(i)
		nnz += len(docs[i].Idx)
	}
	scores := make([]float32, p.NumFuncs())
	out := make([]uint32, p.M)
	perNNZ := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(float64(nnz)/float64(len(docs))), "ns/nnz")
	}
	b.Run("Rows", func(b *testing.B) {
		f, _ := NewFamily(p)
		for _, v := range docs {
			f.SketchInto(v, scores, out)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.SketchInto(docs[i%len(docs)], scores, out)
		}
		perNNZ(b)
	})
	b.Run("FlatSlab", func(b *testing.B) {
		e := newEagerFamily(p)
		e.drawAll()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.sketchInto(docs[i%len(docs)], scores, out)
		}
		perNNZ(b)
	})
	b.Run("FirstUse", func(b *testing.B) {
		var f *Family
		for i := 0; i < b.N; i++ {
			if i%len(docs) == 0 {
				f, _ = NewFamily(p)
			}
			f.SketchInto(docs[i%len(docs)], scores, out)
		}
		perNNZ(b)
	})
}
