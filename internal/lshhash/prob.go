package lshhash

import "math"

// CollisionProb returns p(t) = 1 − t/π, the probability that two unit
// vectors at angle t collide under one random-hyperplane hash bit (§3).
func CollisionProb(t float64) float64 {
	p := 1 - t/math.Pi
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// HalfCollisionProb returns p(t)^(k/2), the probability that a k/2-bit
// function u_i agrees on two points at angle t.
func HalfCollisionProb(t float64, k int) float64 {
	return math.Pow(CollisionProb(t), float64(k)/2)
}

// RetrievalProb returns P′(t, k, m): the probability that a point at angle
// t from the query is retrieved by the all-pairs scheme, i.e. that at least
// two of the m functions u_i collide (§7.2):
//
//	P′ = 1 − (1−q)^m − m·q·(1−q)^(m−1),  q = p(t)^(k/2).
func RetrievalProb(t float64, k, m int) float64 {
	q := HalfCollisionProb(t, k)
	miss := math.Pow(1-q, float64(m))
	one := float64(m) * q * math.Pow(1-q, float64(m-1))
	p := 1 - miss - one
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// TableCollisionProb returns p(t)^k, the probability that one specific
// table g_{a,b} places a point at angle t in the query's bucket. The
// expected total collision count across tables is L·p(t)^k (Eq. 7.1).
func TableCollisionProb(t float64, k int) float64 {
	return math.Pow(CollisionProb(t), float64(k))
}

// MinMForRecall returns the smallest m ≥ 2 such that
// RetrievalProb(R, k, m) ≥ 1−δ, or (0, false) if none exists below limit.
// This is the inner step of the §7.3 parameter enumeration.
func MinMForRecall(radius, delta float64, k, limit int) (int, bool) {
	for m := 2; m <= limit; m++ {
		if RetrievalProb(radius, k, m) >= 1-delta {
			return m, true
		}
	}
	return 0, false
}

// HammingEpsilon is ε, the share of the rows at the query radius that the
// sign-bit check may reject: HammingBound is the bound whose binomial tail
// at the radius is at most ε. It is a constant of the package, not an
// option — a query's answers are a function of the sketches, the radius and
// k, and ε is part of that function.
const HammingEpsilon = 0.01

// HammingBound returns T, the smallest t with P[Bin(n, θ/π) > t] ≤ ε for
// n = m·k/2 sign bits and θ = radius: each hyperplane separates two vectors
// at angle θ with probability θ/π, so a row at the radius differs from the
// query in more than T of its n bits with probability at most ε, and one
// nearer in fewer still. A candidate more than T bits away is dropped before
// its dot product (core.Verify). T = n keeps every candidate. It does not
// allocate: a request that overrides the radius pays for it per query.
//
// The tail is summed from the mode up, where the terms are largest, so no
// term a sum needs underflows whatever n is.
func HammingBound(k, m int, radius float64) int {
	n := m * k / 2
	p := 1 - CollisionProb(radius)
	switch {
	case p <= 0:
		return 0
	case p >= 1:
		return n
	}
	fn := float64(n)
	mode := min(int(math.Floor((fn+1)*p)), n)
	lg := func(x float64) float64 { v, _ := math.Lgamma(x); return v }
	top := math.Exp(lg(fn+1) - lg(float64(mode)+1) - lg(fn-float64(mode)+1) +
		float64(mode)*math.Log(p) + (fn-float64(mode))*math.Log1p(-p))
	up, down := p/(1-p), (1-p)/p // pmf(i+1)/pmf(i) = (n−i)/(i+1)·up
	// above is P[X > mode]: every term past the mode.
	var above float64
	for i, pmf := mode, top; i < n; i++ {
		pmf *= float64(n-i) / float64(i+1) * up
		above += pmf
	}
	if above > HammingEpsilon {
		// Walk up from the mode: tail(t) = tail(t−1) − pmf(t).
		tail, pmf := above, top
		for t := mode + 1; t <= n; t++ {
			pmf *= float64(n-t+1) / float64(t) * up
			tail -= pmf
			if tail <= HammingEpsilon {
				return t
			}
		}
		return n
	}
	// The tail is within ε at the mode already: walk down while it stays.
	tail, pmf := above, top
	for t := mode; t > 0; t-- {
		if tail+pmf > HammingEpsilon {
			return t
		}
		tail += pmf
		pmf *= float64(t) / float64(n-t+1) * down
	}
	return 0
}
