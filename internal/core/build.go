package core

import (
	"plsh/internal/lshhash"
	"plsh/internal/sched"
	"plsh/internal/sparse"
)

// BuildOptions configures construction. The zero value is the serving
// build — the paper's full algorithm of §5.1 (vectorized hashing, then the
// shared two-level partition) on GOMAXPROCS workers — and Defaults returns
// it. Fig. 4's less optimized arms are built from this package's exported
// pieces in internal/expr.
type BuildOptions struct {
	// Workers sets the pool size; <= 0 means GOMAXPROCS.
	Workers int
}

// Defaults returns the serving build options, the zero value.
func Defaults() BuildOptions { return BuildOptions{} }

// BuildTimings reports wall time (ns) spent in each construction phase, for
// the Fig. 6 model-validation experiment.
type BuildTimings struct {
	HashNS int64 // sketch computation (§5.1.1)
	I1NS   int64 // first-level partitions (Step I1)
	I2NS   int64 // second-key gather (Step I2)
	I3NS   int64 // second-level keys and partitions (Step I3)
}

// Build constructs a Static index over every row of mat.
func Build(fam *lshhash.Family, mat *sparse.Matrix, opts BuildOptions) (*Static, error) {
	st, _, err := BuildTimed(fam, mat, opts)
	return st, err
}

// BuildTimed is Build with per-phase timings.
func BuildTimed(fam *lshhash.Family, mat *sparse.Matrix, opts BuildOptions) (*Static, BuildTimings, error) {
	var tm BuildTimings
	if err := checkDims(fam, mat); err != nil {
		return nil, tm, err
	}
	pool := sched.NewPool(opts.Workers)
	k := fam.Params().K

	t0 := now()
	sk := fam.SketchAll(mat, pool)
	tm.HashNS = now() - t0
	return buildOn(fam, sk, uint(k-DirectoryBits(mat.Rows(), k)), pool, &tm), tm, nil
}

// MustBuild is Build for callers whose dimensions are statically known to
// match; it panics on error.
func MustBuild(fam *lshhash.Family, mat *sparse.Matrix, opts BuildOptions) *Static {
	st, err := Build(fam, mat, opts)
	if err != nil {
		panic(err)
	}
	return st
}

// BuildFromSketches constructs a Static index from precomputed sketches, row
// i of sk becoming document i — Build without its hashing phase. sk's words
// become the index's sign-bit column, so the caller must not change them.
// (Merge builds the tables of a streaming merge's delta rows the same way,
// from the sketches the delta segments kept.)
func BuildFromSketches(fam *lshhash.Family, sk *lshhash.Sketches, workers int) *Static {
	p := fam.Params()
	return buildSketches(fam, sk, uint(p.K-DirectoryBits(sk.N(), p.K)), workers)
}

// buildSketches is BuildFromSketches at a given r.
func buildSketches(fam *lshhash.Family, sk *lshhash.Sketches, r uint, workers int) *Static {
	return buildOn(fam, sk, r, sched.NewPool(workers), new(BuildTimings))
}

// buildOn returns the index over sk's rows, its items carrying r key bits
// and its sign-bit column sk's words, each table packed as buildShared
// hands it over.
func buildOn(fam *lshhash.Family, sk *lshhash.Sketches, r uint, pool *sched.Pool, tm *BuildTimings) *Static {
	st := &Static{fam: fam, n: sk.N(), tables: make([]Table, fam.Params().L()), signs: sk.Data}
	buildShared(fam.Params(), sk, r, pool, tm, func(l, _ int, t flatTable) {
		st.tables[l] = TableFromWords(t.starts, t.items, r)
	})
	return st
}

// buildShared buckets sk's rows into every table, its items carrying r key
// bits, by the paper's full algorithm (Steps I1–I3 of §5.1.2): one
// first-level partition per hash function u_a, shared by all tables (a, ·),
// then per-table second-level refinement by u_b's top k/2 − r bits — m−1
// first-level passes + L second-level passes instead of 2L. Each table
// leaves flat — one start a directory bucket, whole blocks of them, then
// the end; and the items — through emit(l, w, table), called on pool
// worker w, which must be done with the two arrays when it returns: they
// are the worker's scratch. Build packs them (buildOn); Merge merges them
// with the old index's table l, never packing add's tables at all.
//
// Steps I1 and I2 are fused: the first-level scatter carries each row's
// packed sketch along with the data index, so the "rearrange the hash
// values according to the final scatter offsets" step costs no random
// gather — sketch rows are read sequentially exactly once per first-level
// function, and each table (a, b) then reads u_b sequentially out of the
// moved rows into its second-level keys. A packed row is SketchWords words
// (16 B at K = M = 16), so the scatter writes one stream of rows, not one
// stream per remaining half-key.
func buildShared(p lshhash.Params, sk *lshhash.Sketches, r uint, pool *sched.Pool, tm *BuildTimings, emit func(l, w int, t flatTable)) {
	n := sk.N()
	halfB := p.HalfBuckets()
	m := p.M

	// Shared buffers, reused across first-level functions.
	perm := make([]uint32, n)
	offs := make([]uint32, halfB+1)
	moved := p.NewSketches(n) // the rows in first-level order
	type scratch struct {
		hist, items, keys []uint32
		tb                TableBuilder
	}
	ws := make([]scratch, pool.Workers())

	w := pool.Workers()
	if w > n {
		w = n
	}
	hists := make([][]uint32, w)

	for a := 0; a < m-1; a++ {
		// Step I1: local histograms over u_a, then one prefix sum giving
		// per-chunk scatter cursors (§5.1.2 "Parallelism"); Static hands
		// Step I2 the same chunks.
		t0 := now()
		if n > 0 {
			pool.Static(n, func(lo, hi, self int) {
				h := hists[self]
				if h == nil {
					h = make([]uint32, halfB)
					hists[self] = h
				} else {
					for i := range h {
						h[i] = 0
					}
				}
				for i := lo; i < hi; i++ {
					h[sk.At(i, a)]++
				}
			})
			var cum uint32
			for b := 0; b < halfB; b++ {
				offs[b] = cum
				for t := 0; t < w; t++ {
					c := hists[t][b]
					hists[t][b] = cum
					cum += c
				}
			}
			offs[halfB] = cum
		}
		tm.I1NS += now() - t0

		// Step I2 (fused scatter): move each data index and its packed
		// sketch to the first-level position. Sketch rows are read
		// sequentially; writes go to 2^(k/2) partition streams.
		t1 := now()
		if n > 0 {
			aa := a
			pool.Static(n, func(lo, hi, self int) {
				h := hists[self]
				for i := lo; i < hi; i++ {
					key := sk.At(i, aa)
					dst := h[key]
					h[key]++
					perm[dst] = uint32(i)
					copy(moved.Row(int(dst)), sk.Row(i))
				}
			})
		}
		tm.I2NS += now() - t1

		// Step I3: second-level partitions of every table (a, b), keyed by
		// u_b read in order out of the moved rows, in parallel over tables
		// (work stealing, as the paper's task-queue model prescribes).
		t2 := now()
		pool.Run(m-1-a, func(i, wkr int) {
			b := a + 1 + i
			s := &ws[wkr]
			if s.hist == nil {
				s.hist = make([]uint32, halfB)
				s.items = make([]uint32, n)
				s.keys = make([]uint32, n)
			}
			for k := range s.keys {
				s.keys[k] = moved.At(k, b)
			}
			starts := secondLevel(&s.tb, perm, s.keys, offs, s.hist, s.items, p, r)
			emit(lshhash.TableForPair(a, b, m), wkr, flatTable{starts: starts, items: s.items})
		})
		tm.I3NS += now() - t2
	}
}

// SecondLevel refines each first-level segment of perm1 by the top k/2 − r
// bits of the second-level keys and returns the finished table, its
// directory emitted by tb segment by segment, each item carrying its key's
// low r bits — r ≤ k/2, so they are all u_b's. perm1 holds the item ids
// grouped by first-level key, keys2[i] the second-level key of perm1[i], and
// offs1 (len 2^(k/2)+1) where each first-level segment starts. hist is
// scratch of len ≥ 2^(k/2), items scratch of len(perm1) that the items are
// scattered into before Finish packs them. Step I3 of the shared build calls
// it per table, and so does Fig. 4's unshared two-level arm (internal/expr).
func SecondLevel(tb *TableBuilder, perm1, keys2, offs1, hist, items []uint32, p lshhash.Params, r uint) Table {
	return TableFromWords(secondLevel(tb, perm1, keys2, offs1, hist, items, p, r), items[:len(perm1)], r)
}

// secondLevel is SecondLevel with the table left flat: it fills items and
// returns every bucket's start, tb's scratch (TableBuilder.seal).
func secondLevel(tb *TableBuilder, perm1, keys2, offs1, hist, items []uint32, p lshhash.Params, r uint) []uint32 {
	n := len(perm1)
	halfB := p.HalfBuckets()
	hist = hist[:halfB>>r]
	items = items[:n]
	// k2>>r and id<<r as multiplies (as Table.keyMatch explains): the
	// high word of k2·2^(32−r), and id·2^r.
	low, down, up := uint32(1)<<r-1, uint64(1)<<(32-r), uint32(1)<<r
	tb.Reset(p.Buckets()>>r, r)
	for part := 0; part < halfB; part++ {
		segLo, segHi := offs1[part], offs1[part+1]
		seg := keys2[segLo:segHi]
		// Histogram of the segment's second-level directory bits.
		clear(hist)
		for _, k2 := range seg {
			hist[uint64(k2)*down>>32]++
		}
		// Directory buckets (part, 0..len(hist)): counts become scatter
		// cursors. The builder's running total stands at segLo, the
		// segments being contiguous in key order.
		tb.Add(hist)
		// Scatter.
		for i, k2 := range seg {
			d := uint64(k2) * down >> 32
			items[hist[d]] = perm1[segLo+uint32(i)]*up | k2&low
			hist[d]++
		}
	}
	return tb.seal()
}
