package perfmodel

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"plsh/internal/bitvec"
	"plsh/internal/core"
	"plsh/internal/lshhash"
	"plsh/internal/rng"
	"plsh/internal/sched"
	"plsh/internal/sparse"
)

// CalibrationConfig sizes the microbenchmarks to the workload the model
// will predict. The paper derives its constants from hardware datasheets
// for its exact operating point (N=10.5M, 256 bytes of traffic per
// candidate, …); the equivalent here is measuring each primitive on
// working sets shaped like the target workload, so cache and fixed-cost
// behaviour match the real phases.
type CalibrationConfig struct {
	// Dim is the vector-space dimensionality.
	Dim int
	// MeanNNZ is the average non-zeros per document.
	MeanNNZ float64
	// N is the dataset size (sizes the dedup bitvector, the document
	// arena, the sketches the probe tables index, and CalibrateBuild's
	// corpus).
	N int
	// K and M are the LSH parameters of the probe tables and of
	// CalibrateBuild's build.
	K, M int
	// Seed drives the synthetic inputs.
	Seed uint64
}

// zipfAlpha is the word skew of the synthetic calibration documents, the
// tweet corpus's (corpus.Twitter): hot words keep their hyperplane rows
// resident (§5.1.1) as they do in the real phases.
const zipfAlpha = 1.07

// DefaultCalibration fills a config from the core workload parameters.
func DefaultCalibration(dim int, meanNNZ float64, n, k, m int) CalibrationConfig {
	if n < 1024 {
		n = 1024
	}
	return CalibrationConfig{Dim: dim, MeanNNZ: meanNNZ, N: n, K: k, M: m, Seed: 42}
}

func (cc CalibrationConfig) halfBuckets() int { return 1 << uint(cc.K/2) }
func (cc CalibrationConfig) buckets() int     { return 1 << uint(cc.K) }

// nnz is the non-zeros of each synthetic document.
func (cc CalibrationConfig) nnz() int { return max(1, int(cc.MeanNNZ+0.5)) }

// wordDraw returns a Zipf-skewed word sampler over the vocabulary.
func (cc CalibrationConfig) wordDraw(src *rng.Source) func() uint32 {
	z := rng.NewZipf(src.Split(), zipfAlpha, cc.Dim)
	perm := make([]int, cc.Dim)
	src.Split().Perm(perm)
	return func() uint32 { return uint32(perm[z.Next()]) }
}

// docs draws the N synthetic documents: the document arena Step Q3's
// calibration verifies against, and the corpus CalibrateBuild builds.
func (cc CalibrationConfig) docs(draw func() uint32, src *rng.Source) *sparse.Matrix {
	nnz := cc.nnz()
	mat := sparse.NewMatrix(cc.Dim, cc.N, cc.N*nnz)
	for i := 0; i < cc.N; i++ {
		mat.AppendRow(calDoc(draw, src, nnz))
	}
	return mat
}

func calDoc(draw func() uint32, src *rng.Source, nnz int) sparse.Vector {
	idx := make([]uint32, nnz)
	val := make([]float32, nnz)
	for i := range idx {
		idx[i] = draw()
		val[i] = float32(src.Float64() + 0.1)
	}
	v, _ := sparse.NewVector(idx, val)
	if !v.Normalize() {
		return calDoc(draw, src, nnz)
	}
	return v
}

// CalibrateFor measures the query constants EstimateQuery and Select read
// (CollisionNS, TableProbeNS, ScanNSPerWord, CheckNS, UniqueNS) by running the
// engine's own Q2 and Q3 kernels on workload-shaped inputs. Runtime is tens
// to hundreds of milliseconds depending on N. The construction constants
// stay zero: CalibrateBuild fills them.
func CalibrateFor(cc CalibrationConfig) Costs {
	src := rng.New(cc.Seed)
	draw := cc.wordDraw(src)
	var c Costs

	// --- Q2: the engine's own staged probe kernel on a cold key stream.
	c.TableProbeNS, c.CollisionNS = calibrateProbe(cc, src)

	// --- Q2 fixed part: the extraction scan over the N-bit dedup vector.
	{
		bv := bitvec.New(cc.N)
		for i := 0; i < cc.N/512; i++ {
			bv.Set(src.Intn(cc.N))
		}
		var out []uint32
		t0 := time.Now()
		reps := 40
		for r := 0; r < reps; r++ {
			out = bv.AppendSet(out[:0])
		}
		c.ScanNSPerWord = float64(time.Since(t0).Nanoseconds()) / float64(reps*((cc.N+63)/64))
	}

	// --- Q3: the engine's verify kernel over an N-row document arena and
	// sign-bit column, in which every document is a candidate exactly once
	// — in ascending runs, as extraction hands them over — so candidate
	// loads miss caches exactly as the real Step Q3 does (the paper: ~4
	// cache lines of traffic per candidate). The first half of the
	// candidates runs under a bound no row is within, which times the check
	// alone, the second under one every row is within, which times the
	// check and the dot product; the two halves touch disjoint rows, so
	// neither finds the other's lines warm. The column is filled before the
	// arena is drawn, whose writes push it out of the nearer caches as a
	// query's Step Q2 does: filled last, it priced a check at 9–42 ns at
	// 32 000 rows, 30–39 ns filled first.
	{
		p := lshhash.Params{K: cc.K, M: cc.M}
		signs := make([]uint64, cc.N*p.SketchWords())
		for i := range signs {
			signs[i] = src.Uint64()
		}
		mat := cc.docs(draw, src)
		q := calDoc(draw, src, cc.nnz())
		mask := sparse.NewQueryMask(cc.Dim)
		mask.Scatter(q)
		f := core.Filter{Signs: make([]uint64, p.SketchWords()), Mask: mask, Thr: sparse.CosThreshold(0.9)}
		order := make([]int, cc.N)
		src.Perm(order)
		cand := make([]uint32, cc.N)
		for i, id := range order {
			cand[i] = uint32(id)
		}
		const run = 64 // candidates per query, the order of E[#unique]
		for lo := 0; lo < len(cand); lo += run {
			slices.Sort(cand[lo:min(lo+run, len(cand))])
		}
		var dst []core.Neighbor
		pass := func(cand []uint32, bound int) float64 {
			f.Bound = bound
			t0 := time.Now()
			for lo := 0; lo < len(cand); lo += run {
				dst, _, _ = core.Verify(dst[:0], cand[lo:min(lo+run, len(cand))], 0, signs, mat, nil, f)
			}
			return float64(time.Since(t0).Nanoseconds()) / float64(len(cand))
		}
		split := len(cand) / 2 / run * run
		c.CheckNS = pass(cand[:split], -1)
		c.UniqueNS = max(pass(cand[split:], 64*p.SketchWords())-c.CheckNS, 0) // random words fill the lanes' padding too
	}
	return c
}

// CalibrateBuild returns c with the construction constants EstimateBuild
// reads (HashNS, PartitionNS, GatherNS, SecondLevelNS) filled by timing
// core's own build (timedBuild) over cc's N synthetic documents, each phase
// divided by the operations the shared build makes.
func (c Costs) CalibrateBuild(cc CalibrationConfig) Costs {
	src := rng.New(cc.Seed)
	mat := cc.docs(cc.wordDraw(src), src)
	fam, err := lshhash.NewFamily(lshhash.Params{Dim: cc.Dim, K: cc.K, M: cc.M, Seed: cc.Seed})
	if err != nil {
		panic("perfmodel: calibration geometry: " + err.Error())
	}
	_, tm, err := timedBuild(fam, mat)
	if err != nil {
		panic("perfmodel: calibration build: " + err.Error())
	}
	return c.withBuild(tm, cc.N, mat.NNZ(), cc.K, cc.M)
}

// timedBuild is the build the model's construction constants price, timed
// by phase: core's own build on one worker (the model prices one core's
// work), after a GC so it pays for no collection of its caller's garbage.
// The family sketches mat once first, untimed, so the timed hashing finds
// every hyperplane row it reads drawn — lshhash draws a row on its word's
// first use, which would otherwise more than double the phase, and the
// model prices warm hashing. A timed build that drew a row after all is an
// error.
func timedBuild(fam *lshhash.Family, mat *sparse.Matrix) (*core.Static, core.BuildTimings, error) {
	fam.SketchAll(mat, sched.NewPool(1))
	drawn := fam.MemoryBytes()
	opts := core.Defaults()
	opts.Workers = 1
	runtime.GC()
	st, tm, err := core.BuildTimed(fam, mat, opts)
	if err == nil && fam.MemoryBytes() != drawn {
		err = fmt.Errorf("perfmodel: the timed build drew hyperplane rows (family %d → %d B)", drawn, fam.MemoryBytes())
	}
	return st, tm, err
}

// withBuild sets the construction constants from the phase times of one
// worker's shared build (core.Defaults) of n documents with nnz non-zeros
// in all at (k, m): hashing is n·NNZ·(m·k/2) kernel operations, Steps I1 and
// I2 each make one pass over the n items per first-level function u_0 …
// u_(m−2), and Step I3 one per table. It is EstimateBuild's inverse.
func (c Costs) withBuild(tm core.BuildTimings, n, nnz, k, m int) Costs {
	passes := float64(n) * float64(m-1)
	c.HashNS = float64(tm.HashNS) / (float64(nnz) * float64(m*k/2))
	c.PartitionNS = float64(tm.I1NS) / passes
	c.GatherNS = float64(tm.I2NS) / passes
	c.SecondLevelNS = float64(tm.I3NS) / (float64(n) * float64(m*(m-1)/2))
	return c
}

// probeQueries is the length of each calibration key stream: distinct key
// sets probed once each, so the probe finds the bucket directories as cold as a
// client's next query does. (Replaying a few dozen key sets measures an
// L2-resident probe — a fifth of the real cost at K=16/M=16.)
const probeQueries = 4096

// probeCopies is how many further documents repeat each sketch of
// calibrateProbe's twinned documents: a twinned document's query collides
// with that many more items per table than a lone document's.
const probeCopies = 3

// calibrateProbe prices Step Q2's two per-query quantities by running
// core.ProbeMark — the kernel the engine runs — over synthetic tables of
// the real shape: N documents with sketches uniform over the 2^(k/2)
// values of each half-hash, partitioned into min(L, 256) tables whose
// directories index the key bits core gives N documents
// (core.DirectoryBits). Two key streams separate the constants, each the
// sketches of indexed documents, so each finds at least itself in every
// bucket — the directory lookup and the bucket's first item line are paid
// alike, as a real query drawn from the data pays them. The first eighth
// of the documents are twinned: the next three eighths repeat their
// sketches, probeCopies times over, so a twinned document's query finds
// probeCopies more items in every bucket, within the lines the bucket
// already loads, than a lone document's from the last eighth does. Solving
// the two totals for (per table, per collision) prices a probe as the
// directory lookup plus the bucket's first line and a collision as the
// item's decode plus its mark. (A stream of fresh random sketches in place
// of the lone one lands in empty buckets a third of the time at one item
// per bucket, so the split charged the bucket's line to the collisions:
// several times the cost of one more collision where buckets are full.)
// The tables come from core.TableBuilder, as the engine's do, so the probe
// walks the layout the engine walks.
func calibrateProbe(cc CalibrationConfig, src *rng.Source) (tableProbeNS, collisionNS float64) {
	sk := make([]uint32, cc.N*cc.M)
	for i := range sk {
		sk[i] = uint32(src.Intn(cc.halfBuckets()))
	}
	group := cc.N / 8
	for c := 1; c <= probeCopies; c++ {
		copy(sk[c*group*cc.M:(c+1)*group*cc.M], sk[:group*cc.M])
	}

	pairs := lshhash.Pairs(cc.M)
	if len(pairs) > 256 {
		pairs = pairs[:256] // cap allocation; ≥ LLC-busting either way
	}
	half := uint(cc.K / 2)
	tables := make([]core.Table, len(pairs))
	keys := make([]uint32, cc.N)
	hist := make([]uint32, cc.buckets())
	var tb core.TableBuilder
	for t, pr := range pairs {
		for i := range keys {
			keys[i] = pr.Key(sk[i*cc.M:(i+1)*cc.M], half)
		}
		tables[t] = tb.GroupByKey(keys, cc.K, hist)
	}

	seen := bitvec.New(cc.N)
	lo, hi, first := make([]uint32, len(tables)), make([]uint32, len(tables)), make([]uint32, len(tables))
	var cand []uint32
	// Stream 0 is the last eighth's sketches, lone ones, stream 1 the
	// twinned first eighth's: both cycle through as many documents, so
	// neither finds its tables warmer. They alternate query by query, so a
	// change of machine speed during the pass lands on both, and each pair
	// of queries prices a collision and then a probe on its own. The
	// constants are the medians over the pairs: a pair the scheduler cut
	// into, on a machine other processes share, is an outlier of
	// microseconds that a total would carry whole.
	perColl := make([]float64, 0, probeQueries)
	// Each lone query's ns and collisions, and the twinned stream's totals.
	var lone [][2]float64
	var twinned [2]float64
	for i := 0; i < probeQueries; i++ {
		var ns, collisions [2]float64
		for s, doc := range [2]int{cc.N - 1 - i%group, i % group} {
			sketch := sk[doc*cc.M : (doc+1)*cc.M]
			t0 := time.Now()
			n := core.ProbeMark(tables, pairs, sketch, half, lo, hi, first, seen.Words())
			ns[s] = float64(time.Since(t0).Nanoseconds())
			collisions[s] = float64(n)
			// Untimed: the engine's extraction and reset, which
			// ScanNSPerWord prices.
			cand = seen.AppendSet(cand[:0])
			seen.ResetList(cand)
		}
		if collisions[1] > collisions[0] {
			perColl = append(perColl, (ns[1]-ns[0])/(collisions[1]-collisions[0]))
		}
		lone = append(lone, [2]float64{ns[0], collisions[0]})
		twinned[0] += ns[1]
		twinned[1] += collisions[1]
	}

	collisionNS = median(perColl)
	perProbe := make([]float64, len(lone))
	for i, q := range lone {
		perProbe[i] = (q[0] - collisionNS*q[1]) / float64(len(tables))
	}
	tableProbeNS = median(perProbe)
	if collisionNS <= 0 || tableProbeNS <= 0 {
		// Timing noise swamped the split (buckets so full that a few more
		// collisions per table are lost in them): charge half the twinned
		// stream's time to each.
		return twinned[0] / float64(probeQueries*len(tables)) / 2, twinned[0] / twinned[1] / 2
	}
	return tableProbeNS, collisionNS
}

// median returns the median of xs, reordering them; 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	return xs[len(xs)/2]
}
