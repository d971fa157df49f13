package lshhash

import (
	"math"
	"math/bits"
	"testing"

	"plsh/internal/rng"
	"plsh/internal/sched"
	"plsh/internal/sparse"
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

// TestPackedHammingIsHalfKeyHamming: the popcount of two packed rows' XOR,
// as SketchAll and AppendSketches produce them, is the summed popcount of
// their half-keys' XORs, at every K/2 lane width and at an odd M.
func TestPackedHammingIsHalfKeyHamming(t *testing.T) {
	src := rng.New(3)
	for _, p := range []Params{{Dim: 40, K: 2, M: 5}, {Dim: 40, K: 8, M: 6}, {Dim: 40, K: 12, M: 16}, {Dim: 40, K: 16, M: 16}, {Dim: 40, K: 16, M: 5}, {Dim: 40, K: 32, M: 7}} {
		words := p.SketchWords()
		if want := (p.M*p.LaneBits() + 63) / 64; words != want || p.LaneBits() < p.K/2 || p.LaneBits() >= p.K {
			t.Fatalf("%+v: lane %d, words %d", p, p.LaneBits(), words)
		}
		f, _ := NewFamily(p)
		vs := make([]sparse.Vector, 100)
		for i := range vs {
			vs[i] = randUnit(src, p.Dim, 1+src.Intn(8))
		}
		mat := sparse.NewMatrix(p.Dim, len(vs), 0)
		for _, v := range vs {
			mat.AppendRow(v)
		}
		for name, sk := range map[string]*Sketches{"SketchAll": f.SketchAll(mat, sched.NewPool(2)), "AppendSketches": f.AppendSketches(nil, vs)} {
			if len(sk.Data) != len(vs)*words {
				t.Fatalf("%+v: %s holds %d words for %d rows", p, name, len(sk.Data), len(vs))
			}
			for i := 0; i+1 < len(vs); i += 2 {
				u, v := f.Sketch(vs[i]), f.Sketch(vs[i+1])
				want := 0
				for j := range p.M {
					want += bits.OnesCount32(u[j] ^ v[j])
				}
				got := 0
				for j, w := range sk.Row(i) {
					got += bits.OnesCount64(w ^ sk.Row(i + 1)[j])
				}
				if got != want {
					t.Fatalf("%+v: %s rows %d, %d: Hamming %d, want %d", p, name, i, i+1, got, want)
				}
			}
		}
	}
}
