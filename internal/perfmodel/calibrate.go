package perfmodel

import (
	"slices"
	"time"

	"plsh/internal/bitvec"
	"plsh/internal/core"
	"plsh/internal/lshhash"
	"plsh/internal/rng"
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
	// arena, and the sketch arrays the partition benchmarks walk).
	N int
	// K and M are the LSH parameters; they size the partition fan-outs,
	// the hyperplane rows, and the probe targets.
	K, M int
	// ZipfAlpha reproduces the corpus's word skew in the synthetic
	// calibration documents (hot hyperplane rows cache, §5.1.1); <= 1
	// means uniform.
	ZipfAlpha float64
	// Seed drives the synthetic inputs.
	Seed uint64
}

// DefaultCalibration fills a config from the core workload parameters.
func DefaultCalibration(dim int, meanNNZ float64, n, k, m int) CalibrationConfig {
	if n < 1024 {
		n = 1024
	}
	return CalibrationConfig{
		Dim:       dim,
		MeanNNZ:   meanNNZ,
		N:         n,
		K:         k,
		M:         m,
		ZipfAlpha: 1.07,
		Seed:      42,
	}
}

func (cc CalibrationConfig) numFuncs() int    { return cc.M * cc.K / 2 }
func (cc CalibrationConfig) halfBuckets() int { return 1 << uint(cc.K/2) }
func (cc CalibrationConfig) buckets() int     { return 1 << uint(cc.K) }

// wordDraw returns a word sampler matching the configured skew.
func (cc CalibrationConfig) wordDraw(src *rng.Source) func() uint32 {
	if cc.ZipfAlpha <= 1 {
		return func() uint32 { return uint32(src.Intn(cc.Dim)) }
	}
	z := rng.NewZipf(src.Split(), cc.ZipfAlpha, cc.Dim)
	perm := make([]int, cc.Dim)
	src.Split().Perm(perm)
	return func() uint32 { return uint32(perm[z.Next()]) }
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

// CalibrateFor measures the cost constants with workload-shaped
// microbenchmarks. Runtime is tens to hundreds of milliseconds depending
// on N.
func CalibrateFor(cc CalibrationConfig) Costs {
	src := rng.New(cc.Seed)
	draw := cc.wordDraw(src)
	var c Costs
	nnz := int(cc.MeanNNZ + 0.5)
	if nnz < 1 {
		nnz = 1
	}
	halfB := cc.halfBuckets()
	nFuncs := cc.numFuncs()

	// Synthetic sketches for N documents, uniform over the 2^(k/2) values
	// of each half-hash: the probe calibration indexes them and the
	// construction passes partition them.
	sk := make([]uint32, cc.N*cc.M)
	for i := range sk {
		sk[i] = uint32(src.Intn(halfB))
	}

	// --- Q2: the engine's own staged probe kernel on a cold key stream.
	c.TableProbeNS, c.CollisionNS = calibrateProbe(cc, sk, src)

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

	// --- Q3: the engine's verify kernel over an N-row document arena, one
	// pass in which every document is a candidate exactly once — in
	// ascending runs, as extraction hands them over — so candidate loads
	// miss caches exactly as the real Step Q3 does (the paper: ~4 cache
	// lines of traffic per candidate).
	{
		mat := sparse.NewMatrix(cc.Dim, cc.N, cc.N*nnz)
		for i := 0; i < cc.N; i++ {
			mat.AppendRow(calDoc(draw, src, nnz))
		}
		q := calDoc(draw, src, nnz)
		mask := sparse.NewQueryMask(cc.Dim)
		mask.Scatter(q)
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
		t0 := time.Now()
		for lo := 0; lo < len(cand); lo += run {
			ids := cand[lo:min(lo+run, len(cand))]
			dst, _ = core.Verify(dst[:0], ids, 0, mat, nil, len(ids), sparse.CosThreshold(0.9), mask, q)
		}
		c.UniqueNS = float64(time.Since(t0).Nanoseconds()) / float64(len(cand))
	}

	// --- Hashing: the family's own kernel over a pool of Zipf-skewed
	// documents at the real geometry, reproducing §5.1.1's cache behaviour
	// (hot words keep their hyperplane rows resident). The first pass is
	// untimed: it draws the rows the pool touches.
	{
		fam, err := lshhash.NewFamily(lshhash.Params{Dim: cc.Dim, K: cc.K, M: cc.M, Seed: cc.Seed})
		if err != nil {
			panic("perfmodel: calibration geometry: " + err.Error())
		}
		poolSize := 4096
		pool := make([]sparse.Vector, poolSize)
		for i := range pool {
			pool[i] = calDoc(draw, src, nnz)
		}
		scores := make([]float32, nFuncs)
		sketch := make([]uint32, cc.M)
		for _, v := range pool {
			fam.SketchInto(v, scores, sketch)
		}
		var totalNNZ int
		t0 := time.Now()
		reps := 3
		for r := 0; r < reps; r++ {
			for _, v := range pool {
				fam.SketchInto(v, scores, sketch)
				totalNNZ += len(v.Idx)
			}
		}
		c.HashNS = float64(time.Since(t0).Nanoseconds()) / float64(totalNNZ*nFuncs)
	}

	// --- Construction passes, shaped like Steps I1–I3 at (N, k, m).
	{
		n := cc.N
		mW := cc.M

		// I1: the histogram + prefix pass over sequential sketch reads
		// (the fused build's scatter is measured separately as I2).
		hist := make([]uint32, halfB+1)
		offs := make([]uint32, halfB+1)
		perm := make([]uint32, n)
		t0 := time.Now()
		reps := 4
		const col = 0 // both passes key on one column; skew is uniform
		for r := 0; r < reps; r++ {
			for i := range hist {
				hist[i] = 0
			}
			for i := 0; i < n; i++ {
				hist[sk[i*mW+col]]++
			}
			var cum uint32
			for b := 0; b < halfB; b++ {
				offs[b] = cum
				cc := hist[b]
				hist[b] = cum
				cum += cc
			}
			offs[halfB] = cum
		}
		c.PartitionNS = float64(time.Since(t0).Nanoseconds()) / float64(reps*n)

		// I2: the fused first-level scatter — sequential sketch-row reads,
		// one perm write plus ~m/2 column writes per item into 2^(k/2)
		// partition streams.
		cols := make([][]uint32, mW)
		for j := range cols {
			cols[j] = make([]uint32, n)
		}
		writeCols := (mW + 1) / 2
		cursor := make([]uint32, halfB)
		t0 = time.Now()
		for r := 0; r < reps; r++ {
			copy(cursor, offs[:halfB])
			for i := 0; i < n; i++ {
				row := sk[i*mW : i*mW+mW]
				p := row[col]
				dst := cursor[p]
				cursor[p]++
				perm[dst] = uint32(i)
				for j := 0; j < writeCols; j++ {
					cols[j][dst] = row[j]
				}
			}
		}
		c.GatherNS = float64(time.Since(t0).Nanoseconds()) / float64(reps*n)

		// I3: the full second-level pass — per first-level partition, a
		// histogram reset, directory fill, and scatter — so the 2^b fixed
		// costs are amortized exactly as in the real table build.
		itemsOut := make([]uint32, n)
		var tb core.TableBuilder
		keys2 := cols[0]
		// Synthetic first-level offsets: even segments.
		offs1 := make([]uint32, halfB+1)
		for p := 0; p <= halfB; p++ {
			offs1[p] = uint32(p * n / halfB)
		}
		t0 = time.Now()
		for r := 0; r < reps; r++ {
			secondLevelForCalibration(&tb, perm, keys2, offs1, hist[:halfB], itemsOut, cc.K, core.DirectoryBits(n, cc.K))
		}
		c.SecondLevelNS = float64(time.Since(t0).Nanoseconds()) / float64(reps*n)
	}
	return c
}

// probeQueries is the length of each calibration key stream: distinct key
// sets probed once each, so the probe finds the bucket directories as cold as a
// client's next query does. (Replaying a few dozen key sets measures an
// L2-resident probe — a fifth of the real cost at K=16/M=16.)
const probeQueries = 4096

// calibrateProbe prices Step Q2's two per-query quantities by running
// core.ProbeMark — the kernel the engine runs — over synthetic tables of
// the real shape: N documents with uniform sketches sk, partitioned into
// min(L, 256) tables whose directories index the key bits core gives N
// documents (core.DirectoryBits). Two key streams separate the
// constants. Fresh random sketches land in buckets that are empty, and in
// directory buckets of N/2^b ≤ 1 item of other keys: nearly pure probe
// cost. The sketches of indexed documents find at
// least themselves in every bucket, as a real query drawn from the data
// does: about one more collision per table, and the bucket's first item
// line with it. Solving the two totals for (per table, per collision)
// prices a probe as the directory lookup and a collision as the item fetch
// plus the mark. The tables come from core.TableBuilder, as the engine's
// do, so the probe walks the layout the engine walks.
func calibrateProbe(cc CalibrationConfig, sk []uint32, src *rng.Source) (tableProbeNS, collisionNS float64) {
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
	fresh := make([]uint32, probeQueries*cc.M)
	for i := range fresh {
		fresh[i] = uint32(src.Intn(cc.halfBuckets()))
	}
	stride := max(1, cc.N/probeQueries)
	var cand []uint32
	// Stream 0 is the fresh sketches, stream 1 the indexed documents' own.
	// They alternate query by query, so a change of machine speed during
	// the pass lands on both.
	var ns, collisions [2]float64
	for i := 0; i < probeQueries; i++ {
		doc := i * stride % cc.N
		for s, sketch := range [2][]uint32{fresh[i*cc.M : (i+1)*cc.M], sk[doc*cc.M : (doc+1)*cc.M]} {
			t0 := time.Now()
			n := core.ProbeMark(tables, pairs, sketch, half, lo, hi, first, seen.Words())
			ns[s] += float64(time.Since(t0).Nanoseconds())
			collisions[s] += float64(n)
			// Untimed: the engine's extraction and reset, which
			// ScanNSPerWord prices.
			cand = seen.AppendSet(cand[:0])
			seen.ResetList(cand)
		}
	}

	probes := float64(probeQueries * len(tables))
	collisionNS = (ns[1] - ns[0]) / (collisions[1] - collisions[0])
	tableProbeNS = (ns[0] - collisionNS*collisions[0]) / probes
	if collisionNS <= 0 || tableProbeNS <= 0 {
		// Timing noise swamped the split (buckets so full that one more
		// collision per table is lost in them, or an N so small that
		// nothing misses): charge half the self stream's time to each.
		return ns[1] / probes / 2, ns[1] / collisions[1] / 2
	}
	return tableProbeNS, collisionNS
}

// secondLevelForCalibration mirrors core's second-level refinement pass at
// b directory bits, duplicated here so the calibration measures the same
// loop without exporting core internals — k2>>r and id<<r as the same
// multiplies core's pass uses (the high word of k2·2^(32−r), and id·2^r).
// hist has 2^(k/2) entries, one per first-level partition.
func secondLevelForCalibration(tb *core.TableBuilder, perm1, keys2, offs1, hist, items []uint32, k, b int) {
	r := uint(k - b)
	low, down, up := uint32(1)<<r-1, uint64(1)<<(32-r), uint32(1)<<r
	parts := len(hist)
	tb.Reset(1<<uint(b), len(perm1), r)
	hist = hist[:parts>>r]
	for part := 0; part < parts; part++ {
		segLo, segHi := offs1[part], offs1[part+1]
		seg := keys2[segLo:segHi]
		clear(hist)
		for _, k2 := range seg {
			hist[uint64(k2)*down>>32]++
		}
		tb.Add(hist)
		for i, k2 := range seg {
			d := uint64(k2) * down >> 32
			items[hist[d]] = perm1[segLo+uint32(i)]*up | k2&low
			hist[d]++
		}
	}
	tb.Finish(items)
}
