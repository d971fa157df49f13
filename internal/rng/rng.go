// Package rng provides deterministic, splittable pseudo-random number
// generation for PLSH.
//
// Everything in PLSH that involves randomness — hyperplane generation,
// synthetic corpus generation, query sampling — must be reproducible from a
// single seed so that experiments can be re-run bit-identically and so that
// parallel workers can draw independent streams without locking. The
// SplitMix64 generator provides both: it is a tiny, fast, well-distributed
// generator (Steele, Lea & Flood, OOPSLA 2014) whose streams can be forked
// cheaply with Split.
package rng

import "math"

// golden is the 64-bit golden-ratio increment used by SplitMix64.
const golden = 0x9e3779b97f4a7c15

// Source is a SplitMix64 pseudo-random generator. The zero value is a valid
// generator seeded with 0; use New for an explicit seed.
type Source struct {
	state uint64
	// spare Gaussian value from Box-Muller, valid when hasSpare is true.
	spare    float64
	hasSpare bool
}

// New returns a Source seeded with seed.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// Split forks an independent child stream. The child's sequence is
// uncorrelated with the parent's subsequent output, so each parallel worker
// can own a private Source derived from one master seed.
func (s *Source) Split() *Source {
	return &Source{state: s.Uint64() ^ 0x6a09e667f3bcc909}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	s.state += golden
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Skip advances the stream past its next n Uint64 outputs in O(1): the
// state is a counter, so the n-th output of a seed is computable without the
// n−1 before it. Callers that fork one stream per item from a master seed
// (lshhash draws a hyperplane row per vocabulary word) can therefore fork
// item n alone.
func (s *Source) Skip(n uint64) {
	s.state += n * golden
	s.hasSpare = false
}

// Uint32 returns the next 32 uniformly distributed bits.
func (s *Source) Uint32() uint32 { return uint32(s.Uint64() >> 32) }

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method: unbiased and division-free
	// in the common case.
	bound := uint64(n)
	for {
		v := s.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	aLo, aHi := a&mask32, a>>32
	bLo, bHi := b&mask32, b>>32
	t := aLo*bHi + (aLo*bLo)>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += aHi * bLo
	return aHi*bHi + w2 + (w1 >> 32), a * b
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) * (1.0 / (1 << 53))
}

// Norm returns a standard normal variate (mean 0, stddev 1) using the polar
// Box-Muller transform. Gaussian hyperplane entries give the exact
// p(t) = 1 − t/π collision probability of the Charikar angular LSH family.
func (s *Source) Norm() float64 {
	if s.hasSpare {
		s.hasSpare = false
		return s.spare
	}
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q == 0 || q >= 1 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(q) / q)
		s.spare = v * f
		s.hasSpare = true
		return u * f
	}
}

// Perm fills out with a uniform random permutation of 0..len(out)-1
// (Fisher-Yates).
func (s *Source) Perm(out []int) {
	for i := range out {
		out[i] = i
	}
	for i := len(out) - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
}

// Zipf draws from a Zipf–Mandelbrot-like distribution over [0, n) with
// exponent alpha > 1, using inversion by rejection (Devroye). Word
// frequencies in natural language follow a Zipf law; the synthetic corpus
// generator uses this to reproduce the skew that makes some hyperplane rows
// hot in cache (§5.1.1 of the paper).
type Zipf struct {
	src              *Source
	n                float64
	alpha            float64
	oneMinusAlpha    float64
	invOneMinusAlpha float64
	hIntegralX1      float64
	hIntegralN       float64
	sCut             float64
}

// NewZipf returns a Zipf sampler over {0, 1, ..., n-1} with exponent alpha.
// It panics if n <= 0 or alpha <= 1.
func NewZipf(src *Source, alpha float64, n int) *Zipf {
	if n <= 0 {
		panic("rng: NewZipf with non-positive n")
	}
	if alpha <= 1 {
		panic("rng: NewZipf requires alpha > 1")
	}
	z := &Zipf{src: src, n: float64(n), alpha: alpha}
	z.oneMinusAlpha = 1 - alpha
	z.invOneMinusAlpha = 1 / z.oneMinusAlpha
	z.hIntegralX1 = z.hIntegral(1.5) - 1
	z.hIntegralN = z.hIntegral(z.n + 0.5)
	z.sCut = 2 - z.hIntegralInv(z.hIntegral(2.5)-z.h(2))
	return z
}

func (z *Zipf) h(x float64) float64 { return math.Exp(-z.alpha * math.Log(x)) }

func (z *Zipf) hIntegral(x float64) float64 {
	logX := math.Log(x)
	return helper2(z.oneMinusAlpha*logX) * logX
}

func (z *Zipf) hIntegralInv(x float64) float64 {
	t := x * z.oneMinusAlpha
	if t < -1 {
		t = -1
	}
	return math.Exp(helper1(t) * x)
}

// helper1 computes log1p(x)/x with a series fallback near zero.
func helper1(x float64) float64 {
	if math.Abs(x) > 1e-8 {
		return math.Log1p(x) / x
	}
	return 1 - x*(0.5-x*(1.0/3.0-0.25*x))
}

// helper2 computes expm1(x)/x with a series fallback near zero.
func helper2(x float64) float64 {
	if math.Abs(x) > 1e-8 {
		return math.Expm1(x) / x
	}
	return 1 + x*0.5*(1+x*(1.0/3.0)*(1+0.25*x))
}

// Next draws the next Zipf variate in [0, n).
func (z *Zipf) Next() int {
	// Rejection-inversion sampling (Hörmann & Derflinger 1996), as used by
	// the Apache Commons RejectionInversionZipfSampler.
	for {
		u := z.hIntegralN + z.src.Float64()*(z.hIntegralX1-z.hIntegralN)
		x := z.hIntegralInv(u)
		k := math.Floor(x + 0.5)
		if k < 1 {
			k = 1
		} else if k > z.n {
			k = z.n
		}
		if k-x <= z.sCut || u >= z.hIntegral(k+0.5)-z.h(k) {
			return int(k) - 1
		}
	}
}
