package expr

import (
	"fmt"
	"io"
	"sync"
	"time"

	"plsh/internal/bitvec"
	"plsh/internal/core"
	"plsh/internal/lshhash"
	"plsh/internal/sched"
	"plsh/internal/sparse"
)

// Fig4 reproduces Figure 4: PLSH table-construction time as the §5.1
// optimizations are applied cumulatively. The paper reports a total 3.7×
// improvement from "no optimizations" (one-level 2^k-way partitioning per
// table) through 2-level hashing, shared first-level tables, and
// vectorized hashing. The shape to verify: each step helps, with the
// 2-level and sharing steps carrying most of the gain. At N = 20 000,
// k = 12, m = 10 every array is cache-resident, so "+shared tables" reads
// even with "+2-level" (0.90–1.17× its time in six runs): §5.1.2's
// argument rests on TLB and cache misses. There the shared build's Steps
// I1 + I2 take 2.2–4.0 ms where the two-level arm's per-table first passes
// take 4.9–8.2, but its Step I3, reading u_b out of the moved rows, takes
// 6.1–8.1 ms where the arm's second passes take 5.4–7.2 (two workers, 45
// builds each), and the ~45 ms of scalar hashing both arms pay varies by
// more than what is left. The note saying so is printed at that
// configuration only.
func Fig4(o Options, w io.Writer) error {
	c := o.twitterCorpus()
	fam, err := lshFamily(o)
	if err != nil {
		return err
	}
	header(w, fmt.Sprintf("Figure 4: construction breakdown (N=%d, k=%d, m=%d, L=%d)", o.N, o.K, o.M, o.params().L()))

	tb := newTable(w)
	tb.row("configuration", "time (ms)", "speedup vs no-opt")
	var base time.Duration
	for i, arm := range fig4Arms(fam, c.Mat, o.Workers) {
		dur := timeBuild(func() { arm.build() })
		if i == 0 {
			base = dur
		}
		tb.row(arm.name, ms(dur), fmt.Sprintf("%.2fx", float64(base)/float64(dur)))
	}
	tb.flush()
	fmt.Fprintf(w, "paper: cumulative 3.7x from no-opt to +vectorization (16 threads, N=10.5M)\n")
	if o.N == fig4NoteN && o.K == fig4NoteK && o.M == fig4NoteM {
		fmt.Fprintf(w, "note: at N = 20 000 every array is cache-resident, so +shared tables reads even with +2-level\n")
		fmt.Fprintf(w, "(§5.1.2's argument rests on TLB and cache misses): Steps I1 + I2 took 2.2–4.0 ms there, the 2-level first passes 4.9–8.2,\n")
		fmt.Fprintf(w, "but Step I3 6.1–8.1 ms against the 2-level second passes' 5.4–7.2, and both arms hash for ~45 ms\n")
	}
	return nil
}

// The one configuration Fig. 4's printed note was measured at; elsewhere
// the split it quotes is unknown (at 262 144 rows "+shared" read 0.97–1.37×
// "+2-level"), so it is not printed.
const fig4NoteN, fig4NoteK, fig4NoteM = 20000, 12, 10

// buildArm is one row of Fig. 4: a construction of the L tables over a
// matrix. An arm returns the tables alone, which is what the figure times
// and what TestFig4ArmsBuildTheServingTables compares with core.Build's.
type buildArm struct {
	name  string
	build func() []core.Table
}

// fig4Arms lists Fig. 4's rows over mat, each on workers workers. The first
// three hash with the scalar kernel; the last is core.Build, the serving
// build, and the third is that build's partition over the scalar sketches.
func fig4Arms(fam *lshhash.Family, mat *sparse.Matrix, workers int) []buildArm {
	pool := sched.NewPool(workers)
	return []buildArm{
		{"no optimizations", func() []core.Table { return buildOnePass(fam, sketchScalar(fam, mat, pool), pool) }},
		{"+2-level hashtable", func() []core.Table { return buildTwoPass(fam, sketchScalar(fam, mat, pool), pool) }},
		{"+shared tables", func() []core.Table {
			return core.BuildFromSketches(fam, sketchScalar(fam, mat, pool), workers).Tables()
		}},
		{"+vectorization", func() []core.Table {
			return core.MustBuild(fam, mat, core.BuildOptions{Workers: workers}).Tables()
		}},
	}
}

// timeBuild times build, best of 2 runs to damp allocator noise.
func timeBuild(build func()) time.Duration {
	best := time.Duration(1<<62 - 1)
	for r := 0; r < 2; r++ {
		t0 := time.Now()
		build()
		best = min(best, time.Since(t0))
	}
	return best
}

// sketchScalar is Family.SketchAll over the scalar kernel: the hashing of
// Fig. 4's rows before "+vectorization".
func sketchScalar(fam *lshhash.Family, mat *sparse.Matrix, pool *sched.Pool) *lshhash.Sketches {
	p := fam.Params()
	sk := p.NewSketches(mat.Rows())
	pool.Static(mat.Rows(), func(lo, hi, _ int) {
		scores, sketch := make([]float32, p.NumFuncs()), make([]uint32, p.M)
		for i := lo; i < hi; i++ {
			fam.SketchScalarInto(mat.Row(i), scores, sketch)
			sk.Put(i, sketch)
		}
	})
	return sk
}

// buildOnePass is the unoptimized table construction: every table
// partitions all N items by its directory bits in one 2^b-way pass
// (GroupByKey).
func buildOnePass(fam *lshhash.Family, sk *lshhash.Sketches, pool *sched.Pool) []core.Table {
	p := fam.Params()
	tables := make([]core.Table, p.L())
	type scratch struct {
		keys, hist []uint32
		tb         core.TableBuilder
	}
	ws := make([]scratch, pool.Workers())
	pool.Run(p.L(), func(l, w int) {
		s := &ws[w]
		if s.keys == nil {
			s.keys = make([]uint32, sk.N())
			s.hist = make([]uint32, p.Buckets())
		}
		a, b := lshhash.PairForTable(l, p.M)
		for i := range s.keys {
			s.keys[i] = sk.TableKey(i, a, b)
		}
		tables[l] = s.tb.GroupByKey(s.keys, p.K, s.hist)
	})
	return tables
}

// buildTwoPass partitions each table independently in two passes of at
// most k/2 bits (no sharing): first by u_a — carrying each item's
// second-level key through the scatter so no random gather is needed — then
// each first-level segment by u_b's top k/2 − r bits (core.SecondLevel). 2L
// partition passes, each over 2^(k/2) partitions at most (the TLB/cache
// argument of §5.1.2).
func buildTwoPass(fam *lshhash.Family, sk *lshhash.Sketches, pool *sched.Pool) []core.Table {
	p := fam.Params()
	n := sk.N()
	r := uint(p.K - core.DirectoryBits(n, p.K))
	tables := make([]core.Table, p.L())
	type scratch struct {
		keys1, keys2 []uint32
		perm1, kperm []uint32
		offs1        []uint32
		hist         []uint32
		items        []uint32
		tb           core.TableBuilder
	}
	ws := make([]scratch, pool.Workers())
	pool.Run(p.L(), func(l, w int) {
		s := &ws[w]
		if s.keys1 == nil {
			s.keys1 = make([]uint32, n)
			s.keys2 = make([]uint32, n)
			s.perm1 = make([]uint32, n)
			s.kperm = make([]uint32, n)
			s.offs1 = make([]uint32, p.HalfBuckets()+1)
			s.hist = make([]uint32, p.HalfBuckets()+1)
			s.items = make([]uint32, n)
		}
		a, b := lshhash.PairForTable(l, p.M)
		// Sequential sketch read: both keys come from one cache line.
		for i := 0; i < n; i++ {
			s.keys1[i] = sk.At(i, a)
			s.keys2[i] = sk.At(i, b)
		}
		// First-level pass moves (item, key2) pairs together.
		partitionPairs(s.keys1, s.keys2, s.hist, s.perm1, s.kperm, s.offs1)
		tables[l] = core.SecondLevel(&s.tb, s.perm1, s.kperm, s.offs1, s.hist, s.items, p, r)
	})
	return tables
}

// partitionPairs partitions the identity index sequence by keys1 into
// outPerm while carrying keys2 along into outKeys2 (so the second-level
// pass needs no random gather). hist is scratch of len nB+1.
func partitionPairs(keys1, keys2, hist, outPerm, outKeys2, outOffs []uint32) {
	clear(hist)
	for _, k := range keys1 {
		hist[k]++
	}
	nB := len(hist) - 1
	var cum uint32
	for b := 0; b < nB; b++ {
		outOffs[b] = cum
		c := hist[b]
		hist[b] = cum
		cum += c
	}
	outOffs[nB] = cum
	for i, k := range keys1 {
		dst := hist[k]
		hist[k]++
		outPerm[dst] = uint32(i)
		outKeys2[dst] = keys2[i]
	}
}

// Fig5 reproduces Figure 5: query time for the batch as the §5.2
// optimizations are applied cumulatively. The paper reports a total 8.3×
// improvement: set→bitvector dedup, optimized sparse dot products,
// software prefetching (here: sorted candidate extraction), and large
// pages (here: arena vs per-document document store). A last row, past the
// paper's, is the serving path: the sign-bit check that drops a candidate
// more than the Hamming bound from the query before its dot product. Beside
// each time it prints the unique candidates and the answers per query,
// which the paper's rows must share — the optimizations change how a query
// is answered, never what; the check's row shares the candidates, and
// drops at most the answers the bound's ε lets it.
func Fig5(o Options, w io.Writer) error {
	c := o.twitterCorpus()
	queries := o.queries(c)
	fam, err := lshFamily(o)
	if err != nil {
		return err
	}
	st, err := core.Build(fam, c.Mat, core.BuildOptions{Workers: o.Workers})
	if err != nil {
		return err
	}
	header(w, fmt.Sprintf("Figure 5: query breakdown (N=%d, %d queries, L=%d)", o.N, len(queries), o.params().L()))

	pool := sched.NewPool(o.Workers)
	stats := make([]core.QueryStats, len(queries))
	tb := newTable(w)
	tb.row("configuration", "time (ms)", "speedup vs no-opt", "unique/query", "answers/query")
	var base time.Duration
	for i, arm := range fig5Arms(st, c.Mat, o.Radius, o.Workers) {
		batch := func(qs []sparse.Vector) {
			pool.Run(len(qs), func(task, _ int) { _, stats[task] = arm.search(nil, qs[task]) })
		}
		batch(queries[:min(32, len(queries))]) // warm up workspaces
		t0 := time.Now()
		batch(queries)
		dur := time.Since(t0)
		if i == 0 {
			base = dur
		}
		var unique, results int
		for _, s := range stats {
			unique, results = unique+s.Unique, results+s.Results
		}
		nq := float64(len(queries))
		tb.row(arm.name, ms(dur), fmt.Sprintf("%.2fx", float64(base)/float64(dur)),
			fmt.Sprintf("%.2f", float64(unique)/nq), fmt.Sprintf("%.2f", float64(results)/nq))
	}
	tb.flush()
	fmt.Fprintf(w, "paper: cumulative 8.3x from no-opt to +large pages (1000 queries, N=10.5M)\n")
	return nil
}

// searchArm is one row of Fig. 5: how it answers q, appending to dst.
type searchArm struct {
	name   string
	search func(dst []core.Neighbor, q sparse.Vector) ([]core.Neighbor, core.QueryStats)
}

// fig5Arms lists Fig. 5's rows over st at radius. The first four read
// documents from per-document allocations (sparse.ScatteredStore), the last
// two from mat's arena. The last three are the serving engine, the first
// three walk buckets (bucketWalk) on that engine's workspaces, and all but
// the last verify every candidate: their filter's bound is every bit of the
// sketch.
func fig5Arms(st *core.Static, mat *sparse.Matrix, radius float64, workers int) []searchArm {
	scattered := sparse.NewScatteredStore(mat)
	eng := core.NewEngine(st, scattered, core.QueryOptions{Radius: radius, Workers: workers})
	arena := core.NewEngine(st, mat, core.QueryOptions{Radius: radius, Workers: workers})
	thr := sparse.CosThreshold(radius)
	every := st.Family().Params().NumFuncs()
	scan := func(walk bucketWalk, mask bool) func([]core.Neighbor, sparse.Vector) ([]core.Neighbor, core.QueryStats) {
		return func(dst []core.Neighbor, q sparse.Vector) ([]core.Neighbor, core.QueryStats) {
			if q.NNZ() == 0 {
				return dst, core.QueryStats{}
			}
			ws := eng.Begin(q)
			defer eng.End(ws)
			cand := ws.Probe(walk)
			base := len(dst)
			if mask {
				f := eng.Filter(ws, core.SearchParams{})
				f.Bound = every
				dst, _, _ = core.Verify(dst, cand, 0, st.Signs(), scattered, nil, f)
			} else {
				for _, id := range cand {
					idx, val := scattered.Doc(int(id))
					if dot := sparse.Dot(q, sparse.Vector{Idx: idx, Val: val}); dot >= thr {
						dst = append(dst, core.Neighbor{ID: id, Dist: sparse.AngularDistance(dot)})
					}
				}
			}
			return dst, core.QueryStats{Unique: len(cand), Results: len(dst) - base}
		}
	}
	verifyAll := func(e *core.Engine) func([]core.Neighbor, sparse.Vector) ([]core.Neighbor, core.QueryStats) {
		return func(dst []core.Neighbor, q sparse.Vector) ([]core.Neighbor, core.QueryStats) {
			if q.NNZ() == 0 {
				return dst, core.QueryStats{}
			}
			ws := e.Begin(q)
			defer e.End(ws)
			f := e.Filter(ws, core.SearchParams{})
			f.Bound = every
			return e.SearchOn(dst, ws, f)
		}
	}
	return []searchArm{
		{"no optimizations", scan(bucketWalk{st: st, set: true}, false)},
		{"+bitvector", scan(bucketWalk{st: st}, false)},
		{"+optimized sparse DP", scan(bucketWalk{st: st}, true)},
		{"+sw prefetch (extract)", verifyAll(eng)},
		{"+large pages (arena)", verifyAll(arena)},
		{"+sign-bit check", func(dst []core.Neighbor, q sparse.Vector) ([]core.Neighbor, core.QueryStats) {
			return arena.SearchAppend(dst, q, core.SearchParams{})
		}},
	}
}

// bucketWalk is Step Q2 before §5.2's optimizations, a core.Segment over a
// static index: it reads every table's bucket through Table.Bucket and
// deduplicates the ids by test-and-set in the workspace's bitvector, keeping
// first sightings in bucket-scan order, or, with set, in a set container
// (the paper's "C++ STL set") drained at the end.
type bucketWalk struct {
	st  *core.Static
	set bool
}

// sets recycles bucketWalk's set containers, drained, across queries.
var sets = sync.Pool{New: func() any { return map[uint32]struct{}{} }}

func (b bucketWalk) Len() int { return b.st.Len() }

func (b bucketWalk) Candidates(sketch []uint32, seen *bitvec.Vector, cand []uint32) ([]uint32, int) {
	var set map[uint32]struct{}
	if b.set {
		set = sets.Get().(map[uint32]struct{})
		defer sets.Put(set)
	}
	fam := b.st.Family()
	half := uint(fam.Params().K / 2)
	collisions := 0
	for l, pair := range fam.Pairs() {
		// The bucket lands past cand's end, and its ids are kept in place.
		n := len(cand)
		cand = b.st.Table(l).Bucket(cand, pair.Key(sketch, half))
		collisions += len(cand) - n
		kept := cand[:n]
		for _, id := range cand[n:] {
			if b.set {
				set[id] = struct{}{}
			} else if seen.TestAndSet(int(id)) {
				kept = append(kept, id)
			}
		}
		cand = kept
	}
	for id := range set {
		cand = append(cand, id)
		delete(set, id)
	}
	return cand, collisions
}
