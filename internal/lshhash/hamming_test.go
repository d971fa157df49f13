package lshhash

import (
	"math"
	"math/bits"
	"testing"

	"plsh/internal/rng"
)

// binomialTail is P[Bin(n, p) > t], each term from its own log-gamma: the
// reference HammingBound's recurrence is checked against.
func binomialTail(n int, p float64, t int) float64 {
	var s float64
	for i := t + 1; i <= n; i++ {
		a, _ := math.Lgamma(float64(n + 1))
		b, _ := math.Lgamma(float64(i + 1))
		c, _ := math.Lgamma(float64(n - i + 1))
		s += math.Exp(a - b - c + float64(i)*math.Log(p) + float64(n-i)*math.Log1p(-p))
	}
	return s
}

// TestHammingBoundIsPinned: T is 49 at the suite's geometry and the
// paper's radius, it is the smallest t whose tail is within ε, it never
// falls as the radius grows, and it allocates nothing.
func TestHammingBoundIsPinned(t *testing.T) {
	if got := HammingBound(16, 16, 0.9); got != 49 {
		t.Fatalf("HammingBound(16, 16, 0.9) = %d, want 49", got)
	}
	for _, g := range []struct{ k, m int }{{16, 16}, {8, 6}, {12, 16}, {14, 12}, {32, 40}, {2, 3}} {
		n := g.m * g.k / 2
		prev := 0
		for radius := 0.05; radius < math.Pi; radius += 0.05 {
			bound := HammingBound(g.k, g.m, radius)
			p := radius / math.Pi
			if tail := binomialTail(n, p, bound); tail > HammingEpsilon*(1+1e-9) {
				t.Errorf("(%d, %d, %.2f): T = %d has tail %.4g > ε", g.k, g.m, radius, bound, tail)
			}
			if bound > 0 {
				if tail := binomialTail(n, p, bound-1); tail <= HammingEpsilon*(1-1e-9) {
					t.Errorf("(%d, %d, %.2f): T = %d, but T−1 has tail %.4g ≤ ε", g.k, g.m, radius, bound, tail)
				}
			}
			if bound < prev {
				t.Errorf("(%d, %d): T fell from %d to %d at radius %.2f", g.k, g.m, prev, bound, radius)
			}
			prev = bound
		}
	}
	if got := HammingBound(16, 16, math.Pi); got != 128 {
		t.Errorf("at radius π every bit differs: T = %d, want 128", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { HammingBound(16, 16, 1.2) }); allocs != 0 {
		t.Errorf("HammingBound allocates %.0f times", allocs)
	}
}

// TestPackedHammingIsHalfKeyHamming: the popcount of two packed sketches'
// XOR is the summed popcount of their half-keys' XORs, at every K/2 lane
// width and at an odd M.
func TestPackedHammingIsHalfKeyHamming(t *testing.T) {
	src := rng.New(3)
	for _, p := range []Params{{Dim: 1, K: 2, M: 5}, {Dim: 1, K: 8, M: 6}, {Dim: 1, K: 12, M: 16}, {Dim: 1, K: 16, M: 16}, {Dim: 1, K: 16, M: 5}, {Dim: 1, K: 32, M: 7}} {
		words := p.SketchWords()
		if want := (p.M*p.LaneBits() + 63) / 64; words != want || p.LaneBits() < p.K/2 || p.LaneBits() >= p.K {
			t.Fatalf("%+v: lane %d, words %d", p, p.LaneBits(), words)
		}
		sk := &Sketches{M: p.M}
		for range 2 * 50 {
			for range p.M {
				sk.Data = append(sk.Data, uint32(src.Intn(1<<(p.K/2))))
			}
		}
		col := p.PackAll(sk)
		if len(col) != sk.N()*words || cap(col) != len(col) {
			t.Fatalf("%+v: PackAll returned %d words (capacity %d) for %d rows", p, len(col), cap(col), sk.N())
		}
		for i := 0; i+1 < sk.N(); i += 2 {
			want := 0
			for j := range p.M {
				want += bits.OnesCount32(sk.At(i, j) ^ sk.At(i+1, j))
			}
			got := 0
			for j := range words {
				got += bits.OnesCount64(col[i*words+j] ^ col[(i+1)*words+j])
			}
			if got != want {
				t.Fatalf("%+v: Hamming %d, want %d", p, got, want)
			}
		}
	}
}
