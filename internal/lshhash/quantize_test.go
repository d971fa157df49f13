package lshhash

import (
	"math"
	"math/bits"
	"testing"

	"plsh/internal/corpus"
	"plsh/internal/rng"
)

// TestQuantizedFamilyMatchesGaussian pins, as counts over the suite's
// static corpus and geometry (32 000 tweets, Dim 50 000, K = M = 16), what
// rounding each coefficient to a byte costs against the family it
// approximates — the same row streams, each draw kept as a float64:
//
//   - at most 0.5 % of the sign bits differ (0.294 % measured; 2.33 % of
//     half-keys), and
//   - a score keeps the scale of the unrounded one: the mean of score² /
//     ‖v‖² lies in [0.9, 1.1], which the 1/32 the sketch kernels scale a
//     value by is what keeps. The router reads scores as N(0, ‖v‖²)
//     margins; dropping the scale reads about 1 024 here.
func TestQuantizedFamilyMatchesGaussian(t *testing.T) {
	p := Params{Dim: 50000, K: 16, M: 16, Seed: 1}
	f, err := NewFamily(p)
	if err != nil {
		t.Fatal(err)
	}
	col := corpus.Generate(corpus.Twitter(32000, p.Dim, 1))
	nf := p.NumFuncs()
	ref := make([][]float64, p.Dim) // word c's draws, unrounded; nil until seen
	refRow := func(c uint32) []float64 {
		if ref[c] == nil {
			row := make([]float64, nf)
			src := rng.New(rowSeed(p.Seed, c))
			for j := range row {
				row[j] = src.Norm()
			}
			ref[c] = row
		}
		return ref[c]
	}
	scores := make([]float32, nf)
	exact := make([]float64, nf)
	got, want := make([]uint32, p.M), make([]uint32, p.M)
	var bitsDiffer, halvesDiffer, scored int
	var ratio float64
	for i := 0; i < col.Mat.Rows(); i++ {
		v := col.Mat.Row(i)
		f.SketchInto(v, scores, got)
		clear(exact)
		var norm2 float64
		for k, c := range v.Idx {
			a := float64(v.Val[k])
			norm2 += a * a
			for j, g := range refRow(c) {
				exact[j] += a * g
			}
		}
		for j := range want {
			var u uint32
			for b := 0; b < p.K/2; b++ {
				if exact[j*p.K/2+b] >= 0 {
					u |= 1 << b
				}
			}
			want[j] = u
			bitsDiffer += bits.OnesCount32(got[j] ^ u)
			if got[j] != u {
				halvesDiffer++
			}
		}
		if norm2 > 0 {
			for _, s := range scores {
				ratio += float64(s) * float64(s) / norm2
			}
			scored += nf
		}
	}
	bitShare := float64(bitsDiffer) / float64(col.Mat.Rows()*nf)
	halfShare := float64(halvesDiffer) / float64(col.Mat.Rows()*p.M)
	scale := ratio / float64(scored)
	t.Logf("%.3f %% of sign bits and %.2f %% of half-keys differ; mean score²/‖v‖² = %.4f", 100*bitShare, 100*halfShare, scale)
	if bitShare > 0.005 {
		t.Errorf("%.3f %% of sign bits differ from the Gaussian family's, over 0.5 %%", 100*bitShare)
	}
	if scale < 0.9 || scale > 1.1 {
		t.Errorf("mean score²/‖v‖² = %.4f, outside [0.9, 1.1]: the scores lost the scale of a Gaussian hyperplane's", scale)
	}
}

// TestQuantizeRoundsAndClamps: a coefficient is the draw times 32 rounded
// half away from zero, held to ±127 — math.Round's rounding, at the halves,
// beside them and past the clamp, and over a million draws.
func TestQuantizeRoundsAndClamps(t *testing.T) {
	below := math.Nextafter(0.5, 0) / 32 // 32·g just under a half
	for _, c := range []struct {
		g    float64
		want int8
	}{
		{0, 0}, {1, 32}, {-1, -32}, {1.0 / 64, 1}, {-1.0 / 64, -1}, {1.0/64 - 1e-9, 0},
		{below, 0}, {-below, 0}, {1.5 / 32, 2}, {-1.5 / 32, -2}, {2.5 / 32, 3}, {-2.5 / 32, -3},
		{126.5 / 32, 127}, {-126.5 / 32, -127}, {127.5 / 32, 127}, {-127.5 / 32, -127},
		{127.0 / 32, 127}, {4, 127}, {-4, -127}, {math.Inf(1), 127}, {math.Inf(-1), -127},
	} {
		if got := quantize(c.g); got != c.want {
			t.Errorf("quantize(%v) = %d, want %d", c.g, got, c.want)
		}
	}
	src := rng.New(3)
	for range 1 << 20 {
		g := src.Norm()
		if got, want := quantize(g), int8(min(max(math.Round(32*g), -127), 127)); got != want {
			t.Fatalf("quantize(%v) = %d, math.Round gives %d", g, got, want)
		}
	}
}

// TestAxpyRowsMatchScalar: the unrolled kernel sums each column as the plain
// loop does, term for term, over rows of every length mod 4.
func TestAxpyRowsMatchScalar(t *testing.T) {
	src := rng.New(4)
	dim := 300
	for _, nCols := range []int{1, 4, 7, 128} {
		plane := make([]int8, dim*nCols)
		for i := range plane {
			plane[i] = quantize(src.Norm())
		}
		for trial := 0; trial < 30; trial++ {
			v := randUnit(src, dim, 1+src.Intn(10))
			out := make([]float32, nCols)
			for i, c := range v.Idx {
				axpy(v.Val[i], plane[int(c)*nCols:(int(c)+1)*nCols], out)
			}
			for j := 0; j < nCols; j++ {
				var want float32
				for i, c := range v.Idx {
					want += v.Val[i] * float32(plane[int(c)*nCols+j])
				}
				if out[j] != want {
					t.Fatalf("%d columns, col %d: got %v want %v", nCols, j, out[j], want)
				}
			}
		}
	}
}
