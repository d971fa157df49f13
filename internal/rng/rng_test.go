package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed sources diverged at step %d", i)
		}
	}
}

// Skip(n) lands exactly where n draws would have.
func TestSkipMatchesDrawing(t *testing.T) {
	for _, seed := range []uint64{0, 42, 1<<63 + 7} {
		seq := New(seed)
		for n := uint64(0); n < 300; n++ {
			jump := New(seed)
			jump.Skip(n)
			if got, want := jump.Uint64(), seq.Uint64(); got != want {
				t.Fatalf("seed %d: output after Skip(%d) = %#x, the sequence has %#x", seed, n, got, want)
			}
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs of 100", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	// Child must be deterministic given the parent's state.
	parent2 := New(7)
	child2 := parent2.Split()
	for i := 0; i < 100; i++ {
		if child.Uint64() != child2.Uint64() {
			t.Fatal("split streams are not reproducible")
		}
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(3)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	s := New(11)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[s.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: got %d, want about %.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(5)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestNormMoments(t *testing.T) {
	s := New(9)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := s.Norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("Norm mean = %v, want about 0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("Norm variance = %v, want about 1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(13)
	out := make([]int, 257)
	s.Perm(out)
	seen := make([]bool, len(out))
	for _, v := range out {
		if v < 0 || v >= len(out) || seen[v] {
			t.Fatalf("not a permutation: value %d", v)
		}
		seen[v] = true
	}
}

func TestZipfRangeAndSkew(t *testing.T) {
	s := New(17)
	z := NewZipf(s, 1.07, 1000)
	counts := make([]int, 1000)
	const draws = 200000
	for i := 0; i < draws; i++ {
		v := z.Next()
		if v < 0 || v >= 1000 {
			t.Fatalf("Zipf out of range: %d", v)
		}
		counts[v]++
	}
	// Zipf skew: rank 0 must dominate rank 99 by roughly (100)^alpha.
	if counts[0] < 10*counts[99] {
		t.Errorf("insufficient skew: counts[0]=%d counts[99]=%d", counts[0], counts[99])
	}
	// Monotone-ish: head ranks ordered.
	if counts[0] < counts[1] || counts[1] < counts[4] {
		t.Errorf("head of Zipf not decreasing: %v", counts[:5])
	}
}

func TestZipfPanics(t *testing.T) {
	for _, tc := range []struct {
		alpha float64
		n     int
	}{{1.0, 10}, {0.5, 10}, {1.1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewZipf(alpha=%v, n=%d) did not panic", tc.alpha, tc.n)
				}
			}()
			NewZipf(New(1), tc.alpha, tc.n)
		}()
	}
}

func TestMul64MatchesBigMul(t *testing.T) {
	f := func(a, b uint64) bool {
		hi, lo := mul64(a, b)
		// Verify with the schoolbook method on 32-bit halves.
		const m = 1<<32 - 1
		a0, a1 := a&m, a>>32
		b0, b1 := b&m, b>>32
		c0 := a0 * b0
		c1a := a1*b0 + c0>>32
		c1b := a0*b1 + c1a&m
		wantLo := c1b<<32 | c0&m
		wantHi := a1*b1 + c1a>>32 + c1b>>32
		return lo == wantLo && hi == wantHi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
