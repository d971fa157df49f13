package core

import (
	"testing"

	"plsh/internal/corpus"
	"plsh/internal/lshhash"
	"plsh/internal/sched"
	"plsh/internal/sparse"
)

func testSetup(t *testing.T, nDocs int) (*lshhash.Family, *sparse.Matrix) {
	t.Helper()
	p := lshhash.Params{Dim: 2000, K: 8, M: 6, Seed: 42}
	fam, err := lshhash.NewFamily(p)
	if err != nil {
		t.Fatal(err)
	}
	c := corpus.Generate(corpus.Twitter(nDocs, p.Dim, 7))
	return fam, c.Mat
}

// checkTableInvariants asserts that every table is a valid partition: the
// directory passes ValidateTables and covers [0, N], and the items are a
// permutation of 0..N-1 whose bucket assignment matches the brute-force key
// computation.
func checkTableInvariants(t *testing.T, st *Static, sk *lshhash.Sketches) {
	t.Helper()
	p := st.fam.Params()
	n := st.Len()
	if err := ValidateTables(p, n, st.tables); err != nil {
		t.Fatal(err)
	}
	for l := 0; l < st.NumTables(); l++ {
		tbl := st.Table(l)
		a, b := lshhash.PairForTable(l, p.M)
		if len(tbl.Items) != n {
			t.Fatalf("table %d: %d items, want %d", l, len(tbl.Items), n)
		}
		seen := make([]bool, n)
		for key := 0; key < p.Buckets(); key++ {
			for _, item := range tbl.Bucket(uint32(key)) {
				if seen[item] {
					t.Fatalf("table %d: item %d appears twice", l, item)
				}
				seen[item] = true
				want := sk.TableKey(int(item), a, b, p.K)
				if want != uint32(key) {
					t.Fatalf("table %d: item %d in bucket %d, key says %d", l, item, key, want)
				}
			}
		}
		for i, s := range seen {
			if !s {
				t.Fatalf("table %d: item %d missing", l, i)
			}
		}
	}
}

func TestBuildStrategiesProduceValidTables(t *testing.T) {
	fam, mat := testSetup(t, 500)
	sk := fam.SketchAll(mat, sched.NewPool(1), true)
	for _, opts := range []BuildOptions{
		{},
		{TwoLevel: true},
		{TwoLevel: true, ShareFirstLevel: true},
		{TwoLevel: true, ShareFirstLevel: true, Vectorized: true},
		{Vectorized: true},
	} {
		st, err := Build(fam, mat, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if st.Len() != 500 {
			t.Fatalf("%+v: Len = %d", opts, st.Len())
		}
		checkTableInvariants(t, st, sk)
	}
}

// The load-bearing equivalence: all construction strategies place exactly
// the same items in the same buckets (order within a bucket may differ).
func TestBuildStrategiesEquivalentBuckets(t *testing.T) {
	fam, mat := testSetup(t, 400)
	ref, err := Build(fam, mat, BuildOptions{Vectorized: true}) // 1-level
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []BuildOptions{
		{TwoLevel: true, Vectorized: true},
		{TwoLevel: true, ShareFirstLevel: true, Vectorized: true},
	} {
		st, err := Build(fam, mat, opts)
		if err != nil {
			t.Fatal(err)
		}
		p := fam.Params()
		for l := 0; l < st.NumTables(); l++ {
			for key := 0; key < p.Buckets(); key++ {
				a := bucketSet(ref.Table(l), uint32(key))
				b := bucketSet(st.Table(l), uint32(key))
				if len(a) != len(b) {
					t.Fatalf("opts %+v table %d key %d: sizes %d vs %d", opts, l, key, len(a), len(b))
				}
				for id := range a {
					if !b[id] {
						t.Fatalf("opts %+v table %d key %d: item %d missing", opts, l, key, id)
					}
				}
			}
		}
	}
}

func bucketSet(t *Table, key uint32) map[uint32]bool {
	m := make(map[uint32]bool)
	for _, id := range t.Bucket(key) {
		m[id] = true
	}
	return m
}

func TestBuildWorkerCountsAgree(t *testing.T) {
	fam, mat := testSetup(t, 300)
	sk := fam.SketchAll(mat, sched.NewPool(1), true)
	for _, workers := range []int{1, 2, 7} {
		opts := Defaults()
		opts.Workers = workers
		st, err := Build(fam, mat, opts)
		if err != nil {
			t.Fatal(err)
		}
		checkTableInvariants(t, st, sk)
	}
}

func TestBuildEmptyMatrix(t *testing.T) {
	fam, _ := testSetup(t, 10)
	empty := sparse.NewMatrix(fam.Params().Dim, 0, 0)
	st, err := Build(fam, empty, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != 0 {
		t.Fatalf("Len = %d", st.Len())
	}
	// Queries against an empty index return nothing and do not panic.
	eng := NewEngine(st, empty, QueryDefaults())
	if res := searchOne(eng, sparse.Vector{Idx: []uint32{1}, Val: []float32{1}}); res != nil {
		t.Fatalf("query on empty index returned %v", res)
	}
}

func TestBuildDimensionMismatch(t *testing.T) {
	fam, _ := testSetup(t, 10)
	wrong := sparse.NewMatrix(fam.Params().Dim+1, 0, 0)
	if _, err := Build(fam, wrong, Defaults()); err == nil {
		t.Fatal("expected dimension mismatch error")
	}
}

func TestBuildFromSketchesMatchesBuild(t *testing.T) {
	fam, mat := testSetup(t, 250)
	sk := fam.SketchAll(mat, sched.NewPool(2), true)
	st1 := BuildFromSketches(fam, sk, 2)
	st2, err := Build(fam, mat, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	p := fam.Params()
	for l := 0; l < st1.NumTables(); l++ {
		for key := 0; key < p.Buckets(); key++ {
			a := bucketSet(st1.Table(l), uint32(key))
			b := bucketSet(st2.Table(l), uint32(key))
			if len(a) != len(b) {
				t.Fatalf("table %d key %d: %d vs %d", l, key, len(a), len(b))
			}
		}
	}
}

func TestShareImpliesTwoLevel(t *testing.T) {
	fam, mat := testSetup(t, 100)
	sk := fam.SketchAll(mat, sched.NewPool(1), true)
	st, err := Build(fam, mat, BuildOptions{ShareFirstLevel: true})
	if err != nil {
		t.Fatal(err)
	}
	checkTableInvariants(t, st, sk)
}

func TestBuildTimingsPopulated(t *testing.T) {
	fam, mat := testSetup(t, 300)
	_, tm, err := BuildTimed(fam, mat, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if tm.HashNS <= 0 || tm.I1NS <= 0 || tm.I3NS <= 0 {
		t.Fatalf("timings not populated: %+v", tm)
	}
}

func TestPartitionParallelMatchesSequential(t *testing.T) {
	keys := make([]uint32, 1000)
	for i := range keys {
		keys[i] = uint32((i * 2654435761) % 16)
	}
	permSeq := make([]uint32, len(keys))
	offsSeq := make([]uint32, 17)
	hist := make([]uint32, 17)
	partitionIdentity(keys, hist, permSeq, offsSeq)

	for _, workers := range []int{1, 3, 8} {
		pool := sched.NewPool(workers)
		perm, offs := partitionParallel(pool, len(keys), 16, func(i int) uint32 { return keys[i] })
		for b := 0; b <= 16; b++ {
			if offs[b] != offsSeq[b] {
				t.Fatalf("workers=%d: offs[%d] = %d, want %d", workers, b, offs[b], offsSeq[b])
			}
		}
		// Same bucket membership (order within bucket may differ).
		for b := 0; b < 16; b++ {
			want := map[uint32]bool{}
			for _, x := range permSeq[offsSeq[b]:offsSeq[b+1]] {
				want[x] = true
			}
			for _, x := range perm[offs[b]:offs[b+1]] {
				if !want[x] {
					t.Fatalf("workers=%d bucket %d: unexpected item %d", workers, b, x)
				}
			}
		}
	}
}

func TestPartitionParallelEmpty(t *testing.T) {
	pool := sched.NewPool(4)
	perm, offs := partitionParallel(pool, 0, 8, func(i int) uint32 { return 0 })
	if len(perm) != 0 || len(offs) != 9 {
		t.Fatalf("empty partition: perm=%d offs=%d", len(perm), len(offs))
	}
}

// partitionIdentity partitions the identity index sequence 0..len(keys)-1
// by keys into outPerm with bucket boundaries in outOffs (len = nB+1,
// where nB+1 == len(hist)). hist is scratch.
func partitionIdentity(keys, hist, outPerm, outOffs []uint32) {
	for i := range hist {
		hist[i] = 0
	}
	for _, k := range keys {
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
	for i, k := range keys {
		dst := hist[k]
		hist[k]++
		outPerm[dst] = uint32(i)
	}
}
