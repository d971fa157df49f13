// Package perfmodel implements the paper's §7 analytical performance model
// and §7.3 parameter selection.
//
// The model decomposes query time into T_Q2·E[#collisions] + a bitvector
// scan term + the sign-bit check's cost·E[#unique] + T_Q3·E[#verified], and
// construction time into hashing, first-level and second-level partitioning
// terms. The expectations are estimated from the data by sampling (Eqs.
// 7.1–7.2): for sampled query/point pairs at angular distance d, a table
// collides with probability p(d)^k, the all-pairs scheme retrieves the point
// with probability P′(d, k, m), and it both retrieves the point and finds it
// within the Hamming bound with the probability ExpVerified sums.
//
// Where the paper derives its cost constants from hardware datasheets
// (cycles per op, bytes per cache line, achieved bandwidth on a Xeon
// E5-2670), this package calibrates them at runtime by timing the engine's
// own code: the query constants from core's probe, bitvector-scan and
// verify kernels on workload-shaped inputs (CalibrateFor), the
// construction constants from core's timed build (CalibrateBuild). The
// formulas are the paper's; only the constants are machine-specific,
// exactly as intended ("allows us to determine the optimal setting of PLSH
// parameters on different hardware").
package perfmodel

import (
	"errors"
	"math"

	"plsh/internal/core"
	"plsh/internal/lshhash"
	"plsh/internal/rng"
	"plsh/internal/sparse"
)

// Costs holds the calibrated per-operation costs in nanoseconds.
type Costs struct {
	// CollisionNS is T_Q2's variable part: marking one (possibly
	// duplicated) index into the dedup bitvector.
	CollisionNS float64
	// ScanNSPerWord is the fixed Q2 scan term per 64-bit bitvector word
	// (the paper's 1.75 cycles per 32 bits of N).
	ScanNSPerWord float64
	// TableProbeNS is the fixed Q2 cost of one bucket lookup (dependent
	// loads into a table's bucket directory, offsets and item array), paid
	// L times per query. The paper's regime (thousands of collisions per
	// query) hides this constant; at reduced scale it dominates Q2.
	TableProbeNS float64
	// CheckNS is Step Q3's sign-bit check per live unique candidate:
	// loading its packed sketch and the popcount of its XOR with the
	// query's.
	CheckNS float64
	// UniqueNS is T_Q3: loading one candidate document the check kept and
	// computing the masked sparse dot product, per average-NNZ document.
	UniqueNS float64
	// HashNS is the hashing kernel cost per (non-zero × elementary hash
	// function) pair.
	HashNS float64
	// PartitionNS is Step I1 per item and first-level function: the
	// histogram over u_a and its share of the prefix sum.
	PartitionNS float64
	// GatherNS is Step I2 per item and first-level function: the fused
	// scatter of the data index and its packed sketch row.
	GatherNS float64
	// SecondLevelNS is Step I3 per item and table: reading the item's
	// second-level key out of its moved row, and the second-level
	// refinement, including the directory's fixed per-bucket costs
	// amortized at the calibration's N.
	SecondLevelNS float64
	// Q3FixedNS is the per-query fixed cost of Step Q3 (query-mask
	// scatter, result allocation); fitted by FitQuery, zero from the
	// microbenchmarks.
	Q3FixedNS float64
}

// Calibrate measures the query constants with a generic mid-size working
// set. Prefer CalibrateFor with a workload-shaped CalibrationConfig; this
// convenience form serves parameter tuning where (k, m) are not yet known.
func Calibrate(dim int, meanNNZ float64, seed uint64) Costs {
	cc := DefaultCalibration(dim, meanNNZ, 1<<16, 16, 16)
	cc.Seed = seed
	return CalibrateFor(cc)
}

// Workload summarizes a dataset for the model: its size, sparsity, and a
// sample of query-to-point angular distances (the input to Eqs. 7.1–7.2).
type Workload struct {
	// N is the full dataset size the estimates scale to.
	N int
	// MeanNNZ is the mean non-zeros per document.
	MeanNNZ float64
	// Dists holds sampled query→point distances (radians).
	Dists []float64
	// Radius is the query radius the engine verifies candidates at, which
	// fixes the Hamming bound; <= 0 means the paper's 0.9, the engine's
	// default.
	Radius float64
}

// SampleWorkload draws nQueries×nPoints distance samples from mat ("We use
// a random set of 1000 queries and 1000 data points for generating these
// estimates", §7.3).
func SampleWorkload(mat *sparse.Matrix, nQueries, nPoints int, seed uint64) Workload {
	src := rng.New(seed)
	w := Workload{N: mat.Rows(), MeanNNZ: float64(mat.NNZ()) / float64(max(1, mat.Rows()))}
	if mat.Rows() == 0 {
		return w
	}
	qIdx := make([]int, nQueries)
	pIdx := make([]int, nPoints)
	for i := range qIdx {
		qIdx[i] = src.Intn(mat.Rows())
	}
	for i := range pIdx {
		pIdx[i] = src.Intn(mat.Rows())
	}
	w.Dists = make([]float64, 0, nQueries*nPoints)
	for _, qi := range qIdx {
		q := mat.Row(qi)
		for _, pi := range pIdx {
			d := sparse.Dot(q, mat.Row(pi))
			w.Dists = append(w.Dists, sparse.AngularDistance(d))
		}
	}
	return w
}

// ExpCollisions estimates E[#collisions] per query (Eq. 7.1):
// L · Σ_v p(d(q,v))^k, scaled from the sample to the full dataset.
func (w Workload) ExpCollisions(k, m int) float64 {
	if len(w.Dists) == 0 {
		return 0
	}
	var s float64
	for _, d := range w.Dists {
		s += lshhash.TableCollisionProb(d, k)
	}
	L := float64(m * (m - 1) / 2)
	return L * s / float64(len(w.Dists)) * float64(w.N)
}

// ExpUnique estimates E[#unique] per query (Eq. 7.2):
// Σ_v P′(d(q,v), k, m), scaled from the sample to the full dataset.
func (w Workload) ExpUnique(k, m int) float64 {
	if len(w.Dists) == 0 {
		return 0
	}
	var s float64
	for _, d := range w.Dists {
		s += lshhash.RetrievalProb(d, k, m)
	}
	return s / float64(len(w.Dists)) * float64(w.N)
}

// ExpVerified estimates E[#verified] per query: the candidates whose
// distance core.Verify computes, Σ_v P(at least 2 of the m half-keys agree
// and the Hamming distance over the m·k/2 bits is at most T), T =
// lshhash.HammingBound at w's radius, scaled from the sample to the full
// dataset. Each bit differs with probability d/π, independently, so the
// probability is exact at any one distance (verifiedProb), but it costs a
// DP of m·T·k/2 steps — 200 000 at k = 24, m = 64 — and a sample holds up
// to a million distances. So it is taken exactly at the verifiedGrid + 1
// distances i·π/verifiedGrid the sample falls between, and linearly between
// them: a smooth function at a step under 0.001 rad, within 10⁻⁴ of the
// exact sum on the test corpus.
func (w Workload) ExpVerified(k, m int) float64 {
	if len(w.Dists) == 0 {
		return 0
	}
	radius := w.Radius
	if radius <= 0 {
		radius = 0.9
	}
	bound := lshhash.HammingBound(k, m, radius)
	scratch := make([]float64, 2*(bound+1))
	nodes := make([]float64, verifiedGrid+1)
	for i := range nodes {
		nodes[i] = -1 // not yet taken
	}
	node := func(i int) float64 {
		if nodes[i] < 0 {
			nodes[i] = verifiedProb(float64(i)*math.Pi/verifiedGrid, k, m, bound, scratch)
		}
		return nodes[i]
	}
	var s float64
	for _, d := range w.Dists {
		x := min(max(d, 0), math.Pi) / math.Pi * verifiedGrid
		i := min(int(x), verifiedGrid-1)
		f := x - float64(i)
		s += node(i)*(1-f) + node(i+1)*f
	}
	return s / float64(len(w.Dists)) * float64(w.N)
}

// verifiedGrid is how many steps ExpVerified divides [0, π] into.
const verifiedGrid = 4096

// verifiedProb is P(at least 2 of m half-keys agree, and at most bound of
// the m·k/2 bits differ) for two points at angle d. A half-key's differing
// bits j are Bin(k/2, d/π) and it agrees iff j = 0, so with c(x) = Σ_{j≥1}
// P(j)·x^j — a half-key that disagrees, by its differing bits — and q its
// agreement probability,
//
//	P = P[Bin(m·k/2, d/π) ≤ T] − [x^≤T] c(x)^m − m·q·[x^≤T] c(x)^(m−1):
//
// every pair within T bits, less those with no half-key agreeing and those
// with exactly one. The powers of c are taken one half-key at a time,
// truncated at x^T, in scratch (2·(bound+1) long).
func verifiedProb(d float64, k, m, bound int, scratch []float64) float64 {
	p := 1 - lshhash.CollisionProb(d)
	if p >= 1 {
		return 0 // every bit differs: no half-key agrees
	}
	half := k / 2
	var c [17]float64 // c[j] = P(j) for j ≥ 1; half ≤ 16
	pj := math.Pow(1-p, float64(half))
	q := pj
	for j := 1; j <= half; j++ {
		pj *= float64(half-j+1) / float64(j) * p / (1 - p)
		c[j] = pj
	}
	pow, next := scratch[:bound+1], scratch[bound+1:2*(bound+1)]
	clear(pow)
	pow[0] = 1 // c^0
	var none, one float64
	for i := 1; i <= m; i++ {
		clear(next)
		for h, v := range pow {
			for j := 1; j <= half && h+j <= bound; j++ {
				next[h+j] += v * c[j]
			}
		}
		pow, next = next, pow
		var sum float64
		for _, v := range pow {
			sum += v
		}
		if i == m-1 {
			one = float64(m) * q * sum
		}
		none = sum
	}
	n := m * half
	within := 0.0
	pt := math.Pow(1-p, float64(n))
	for t := 0; t <= bound; t++ {
		within += pt
		pt *= float64(n-t) / float64(t+1) * p / (1 - p)
	}
	return max(0, within-none-one)
}

// QueryEstimate is a per-query time prediction split by phase.
type QueryEstimate struct {
	Collisions float64 // E[#collisions]
	Unique     float64 // E[#unique]
	Verified   float64 // E[#verified]
	Q2NS       float64 // T_Q2·E[#collisions] + scan term
	Q3NS       float64 // CheckNS·E[#unique] + T_Q3·E[#verified]
	TotalNS    float64
}

// EstimateQuery predicts single-threaded per-query cost for (k, m) on w:
// T_Q2·E[#collisions] + per-table probes + the bitvector scan, plus
// CheckNS·E[#unique] + T_Q3·E[#verified] (§7.2, with the probe constant
// added — see TableProbeNS — and Step Q3 split at the sign-bit check).
func (c Costs) EstimateQuery(w Workload, k, m int) QueryEstimate {
	e := QueryEstimate{
		Collisions: w.ExpCollisions(k, m),
		Unique:     w.ExpUnique(k, m),
		Verified:   w.ExpVerified(k, m),
	}
	L := float64(m * (m - 1) / 2)
	scan := c.ScanNSPerWord * float64(w.N) / 64
	e.Q2NS = c.CollisionNS*e.Collisions + c.TableProbeNS*L + scan
	e.Q3NS = c.CheckNS*e.Unique + c.UniqueNS*e.Verified + c.Q3FixedNS
	e.TotalNS = e.Q2NS + e.Q3NS
	return e
}

// BuildEstimate is a construction-time prediction split by phase
// (single-threaded; divide by effective cores for wall clock).
type BuildEstimate struct {
	HashNS  float64
	I1NS    float64
	I2NS    float64
	I3NS    float64
	TotalNS float64
}

// EstimateBuild predicts construction cost for (k, m) on w with the shared
// 2-level algorithm (core.Defaults): hashing N·NNZ·(m·k/2) kernel ops, one
// Step I1 histogram and one Step I2 scatter per first-level function u_0 …
// u_(m−2), and L second-level refinements. It reads the constants
// CalibrateBuild fills.
func (c Costs) EstimateBuild(w Workload, k, m int) BuildEstimate {
	n := float64(w.N)
	L := float64(m * (m - 1) / 2)
	e := BuildEstimate{
		HashNS: c.HashNS * n * w.MeanNNZ * float64(m*k/2),
		I1NS:   c.PartitionNS * n * float64(m-1),
		I2NS:   c.GatherNS * n * float64(m-1),
		I3NS:   c.SecondLevelNS * n * L,
	}
	e.TotalNS = e.HashNS + e.I1NS + e.I2NS + e.I3NS
	return e
}

// Choice is a selected parameter point.
type Choice struct {
	K, M, L     int
	Est         QueryEstimate
	MemoryBytes int64
}

// ErrNoFeasible indicates no (k, m) satisfies the recall and memory
// constraints.
var ErrNoFeasible = errors.New("perfmodel: no feasible (k, m) under the given constraints")

// Select enumerates k = 2, 4, …, kMax and, per §7.3, picks for each k the
// smallest m with P′(R, k, m) ≥ 1−δ, keeps candidates whose table memory
// — core.TableMemoryBound: Eq. 7.4's (L·N + 2^k·L)·4 with an item at the
// bits the tables pack it in (its id's ⌈log2 N⌉ and the key bits the
// directory leaves it) rather than 4 bytes, and the second term replaced by
// the directory the tables actually carry, over the key bits N documents
// tell apart, in 64-bucket blocks of a 32-bit base and 65 packed offsets —
// fits memBudget, and
// returns the one minimizing the
// estimated query time. k stops where lshhash.Params.Validate stops it, at
// the width of a table key (p(R)^32 < 1e-4 at R=0.9; beyond is pointless,
// §7.3).
func Select(c Costs, w Workload, radius, delta float64, kMax, mMax int, memBudget int64) (Choice, error) {
	w.Radius = radius
	best := Choice{}
	found := false
	for k := 2; k <= kMax && (lshhash.Params{Dim: 1, K: k, M: 2}).Validate() == nil; k += 2 {
		m, ok := lshhash.MinMForRecall(radius, delta, k, mMax)
		if !ok {
			continue
		}
		L := m * (m - 1) / 2
		mem := core.TableMemoryBound(w.N, k, L)
		if memBudget > 0 && mem > memBudget {
			continue
		}
		est := c.EstimateQuery(w, k, m)
		if !found || est.TotalNS < best.Est.TotalNS {
			best = Choice{K: k, M: m, L: L, Est: est, MemoryBytes: mem}
			found = true
		}
	}
	if !found {
		return Choice{}, ErrNoFeasible
	}
	return best, nil
}

// RelativeError returns |est−actual|/actual — the Fig. 6/7 accuracy metric.
func RelativeError(est, actual float64) float64 {
	if actual == 0 {
		return math.Inf(1)
	}
	return math.Abs(est-actual) / actual
}
