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
		if tbl.n != uint32(n) {
			t.Fatalf("table %d: %d items, want %d", l, tbl.n, n)
		}
		seen := make([]bool, n)
		for key := 0; key < p.Buckets(); key++ {
			for _, item := range tbl.Bucket(nil, uint32(key)) {
				if seen[item] {
					t.Fatalf("table %d: item %d appears twice", l, item)
				}
				seen[item] = true
				want := sk.TableKey(int(item), a, b)
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

// oneLevel builds the tables over sk the unoptimized way: every table
// partitions all items by its full key in one TableBuilder.GroupByKey pass.
func oneLevel(t *testing.T, fam *lshhash.Family, sk *lshhash.Sketches) *Static {
	t.Helper()
	p := fam.Params()
	keys := make([]uint32, sk.N())
	hist := make([]uint32, p.Buckets())
	tables := make([]Table, p.L())
	var tb TableBuilder
	for l := range tables {
		a, b := lshhash.PairForTable(l, p.M)
		for i := range keys {
			keys[i] = sk.TableKey(i, a, b)
		}
		tables[l] = tb.GroupByKey(keys, p.K, hist)
	}
	st, err := StaticFromTables(fam, sk.N(), tables, 2)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// scalarSketches sketches every row of mat with the scalar kernel.
func scalarSketches(fam *lshhash.Family, mat *sparse.Matrix) *lshhash.Sketches {
	p := fam.Params()
	sk := p.NewSketches(mat.Rows())
	scores, sketch := make([]float32, p.NumFuncs()), make([]uint32, p.M)
	for i := 0; i < mat.Rows(); i++ {
		fam.SketchScalarInto(mat.Row(i), scores, sketch)
		sk.Put(i, sketch)
	}
	return sk
}

// Every way core builds tables — Build, BuildFromSketches over the scalar
// kernel's sketches, and the one-level GroupByKey partition — yields valid
// partitions of all the items.
func TestBuildStrategiesProduceValidTables(t *testing.T) {
	fam, mat := testSetup(t, 500)
	sk := fam.SketchAll(mat, sched.NewPool(1))
	built, err := Build(fam, mat, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		st   *Static
	}{
		{"Build", built},
		{"BuildFromSketches(scalar)", BuildFromSketches(fam, scalarSketches(fam, mat), 3)},
		{"GroupByKey", oneLevel(t, fam, sk)},
	} {
		if c.st.Len() != 500 {
			t.Fatalf("%s: Len = %d", c.name, c.st.Len())
		}
		checkTableInvariants(t, c.st, sk)
	}
}

// The load-bearing equivalence: the shared two-level build places exactly
// the items the one-level partition does in each bucket, whichever sketch
// kernel fed it (order within a bucket may differ).
func TestBuildStrategiesEquivalentBuckets(t *testing.T) {
	fam, mat := testSetup(t, 400)
	ref := oneLevel(t, fam, fam.SketchAll(mat, sched.NewPool(1)))
	built, err := Build(fam, mat, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	p := fam.Params()
	for _, c := range []struct {
		name string
		st   *Static
	}{
		{"Build", built},
		{"BuildFromSketches(scalar)", BuildFromSketches(fam, scalarSketches(fam, mat), 2)},
	} {
		for l := 0; l < c.st.NumTables(); l++ {
			for key := 0; key < p.Buckets(); key++ {
				a := bucketSet(ref.Table(l), uint32(key))
				b := bucketSet(c.st.Table(l), uint32(key))
				if len(a) != len(b) {
					t.Fatalf("%s table %d key %d: sizes %d vs %d", c.name, l, key, len(a), len(b))
				}
				for id := range a {
					if !b[id] {
						t.Fatalf("%s table %d key %d: item %d missing", c.name, l, key, id)
					}
				}
			}
		}
	}
}

func bucketSet(t *Table, key uint32) map[uint32]bool {
	m := make(map[uint32]bool)
	for _, id := range t.Bucket(nil, key) {
		m[id] = true
	}
	return m
}

func TestBuildWorkerCountsAgree(t *testing.T) {
	fam, mat := testSetup(t, 300)
	sk := fam.SketchAll(mat, sched.NewPool(1))
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
	sk := fam.SketchAll(mat, sched.NewPool(2))
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
