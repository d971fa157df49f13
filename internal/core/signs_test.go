package core

import (
	"fmt"
	"slices"
	"testing"

	"plsh/internal/bitvec"
	"plsh/internal/corpus"
	"plsh/internal/lshhash"
	"plsh/internal/oracle"
	"plsh/internal/rng"
	"plsh/internal/sched"
	"plsh/internal/sparse"
)

// checkColumn holds st's sign-bit column to the rows of mat, each sketched
// alone and packed: every row the tables hold — every row dead does not
// set — has its sketch packed, and every row dead sets a zero entry.
func checkColumn(t *testing.T, what string, st *Static, mat *sparse.Matrix, dead []uint64) {
	t.Helper()
	p := st.fam.Params()
	words := p.SketchWords()
	if len(st.signs) != st.n*words || mat.Rows() != st.n {
		t.Fatalf("%s: a column of %d words over %d rows, %d documents", what, len(st.signs), st.n, mat.Rows())
	}
	want := make([]uint64, words)
	for id := 0; id < st.n; id++ {
		if dead != nil && isDead(dead, uint32(id)) {
			clear(want)
		} else {
			p.Pack(want, st.fam.Sketch(mat.Row(id)))
		}
		if got := st.signs[id*words : (id+1)*words]; !slices.Equal(got, want) {
			t.Fatalf("%s: row %d's column entry %x, want %x", what, id, got, want)
		}
	}
}

// TestSignColumnMatchesSketches: the column every constructor derives
// equals each row's sketch packed for every row the tables hold — after
// Build, after Merge with tombstones at r > 0 and at r = 0, and after the
// tables pass through a snapshot's encoding into StaticFromTables on 1 and
// on 3 workers — at K = 8, 12 and 16 and at odd M, one of whose rows ends
// in a word of one lane.
func TestSignColumnMatchesSketches(t *testing.T) {
	for _, p := range []lshhash.Params{
		{Dim: 2000, K: 8, M: 6, Seed: 3},
		{Dim: 2000, K: 12, M: 16, Seed: 4},
		{Dim: 2000, K: 16, M: 16, Seed: 5},
		{Dim: 2000, K: 16, M: 5, Seed: 6},
		{Dim: 2000, K: 8, M: 5, Seed: 7},
		{Dim: 2000, K: 12, M: 17, Seed: 8}, // three words, the last holding u_16 alone
	} {
		fam, err := lshhash.NewFamily(p)
		if err != nil {
			t.Fatal(err)
		}
		// A directory indexes ⌈log2 n⌉ − 2 key bits (DirectoryBits), so at
		// K = 8 a merge past 1 024 rows indexes every key bit (r = 0); at
		// K = 12 and 16 these row counts leave the items key bits (r > 0).
		const nOld, nAdd = 600, 460
		mat := corpus.Generate(corpus.Twitter(nOld+nAdd, p.Dim, p.Seed)).Mat
		sk := fam.SketchAll(mat, sched.NewPool(2))
		what := fmt.Sprintf("K=%d M=%d", p.K, p.M)

		built := MustBuild(fam, mat.Prefix(nOld), Defaults())
		checkColumn(t, what+" Build", built, mat.Prefix(nOld), nil)
		checkColumn(t, what+" BuildFromSketches", BuildFromSketches(fam, rowsOf(fam, sk, 0, nOld), 2), mat.Prefix(nOld), nil)

		dead := randomDead(nOld+nAdd, 4, p.Seed)
		merged := Merge(built, rowsOf(fam, sk, nOld, sk.N()), dead, 2)
		r := merged.tables[0].r
		if wantZero := p.K == 8; (r == 0) != wantZero || int(r) != p.K-DirectoryBits(nOld+nAdd, p.K) {
			t.Fatalf("%s: the merge's items carry %d key bits", what, r)
		}
		checkColumn(t, fmt.Sprintf("%s Merge at r=%d", what, r), merged, mat, dead)

		for _, workers := range []int{1, 3} {
			reread, err := StaticFromTables(fam, built.n, decodeAll(t, built), workers)
			if err != nil {
				t.Fatal(err)
			}
			checkColumn(t, fmt.Sprintf("%s built, encoded, decoded on %d workers", what, workers), reread, mat.Prefix(nOld), nil)
			if reread, err = StaticFromTables(fam, merged.n, decodeAll(t, merged), workers); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(reread.signs, merged.signs) {
				t.Fatalf("%s: StaticFromTables on %d workers derives another column from the merged tables than the merge's", what, workers)
			}
		}
	}
}

// decodeAll is st's tables through AppendEncoded and DecodeTable, as a
// snapshot stores and reads them.
func decodeAll(t *testing.T, st *Static) []Table {
	t.Helper()
	out := make([]Table, len(st.tables))
	for l := range st.tables {
		var err error
		if out[l], err = DecodeTable(st.tables[l].AppendEncoded(nil)); err != nil {
			t.Fatalf("table %d: %v", l, err)
		}
	}
	return out
}

// TestSignCheckRejectsInRadiusAsTheOracleDoes: at K = 2 and M = 32 a
// candidate need agree on only 2 of 32 sign bits, so the Hamming bound (21
// of 32 at radius 1.45) rejects candidates within the radius — the case the
// bound's ε prices — and the engine still answers exactly as the oracle
// does, Unique, Verified and Results included, with and without
// tombstones. The rows are dense vectors in 24 dimensions around a few
// directions, so that many pairs fall within the radius.
func TestSignCheckRejectsInRadiusAsTheOracleDoes(t *testing.T) {
	const radius = 1.45
	p := lshhash.Params{Dim: 24, K: 2, M: 32, Seed: 11}
	fam, err := lshhash.NewFamily(p)
	if err != nil {
		t.Fatal(err)
	}
	if bound := lshhash.HammingBound(p.K, p.M, radius); bound != 21 {
		t.Fatalf("HammingBound = %d, want 21", bound)
	}
	src := rng.New(5)
	centers := make([][]float64, 4)
	for c := range centers {
		centers[c] = make([]float64, p.Dim)
		for j := range centers[c] {
			centers[c][j] = src.Norm()
		}
	}
	mat := sparse.NewMatrix(p.Dim, 0, 0)
	for i := 0; i < 600; i++ {
		v := sparse.Vector{Idx: make([]uint32, p.Dim), Val: make([]float32, p.Dim)}
		for j := range v.Idx {
			v.Idx[j], v.Val[j] = uint32(j), float32(centers[i%len(centers)][j]+1.2*src.Norm())
		}
		v.Normalize()
		mat.AppendRow(v)
	}
	st := MustBuild(fam, mat, Defaults())
	all, live := oracle.New(fam), oracle.New(fam)
	tombstones := bitvec.New(mat.Rows())
	for i := 0; i < mat.Rows(); i++ {
		all.Add(mat.Row(i))
		live.Add(mat.Row(i))
		if i%7 == 3 {
			tombstones.SetAtomic(i)
			live.Delete(uint32(i))
		}
	}
	thr := sparse.CosThreshold(radius)
	for _, del := range []*bitvec.Vector{nil, tombstones} {
		o := all
		if del != nil {
			o = live
		}
		eng := NewEngine(st, mat, QueryOptions{Radius: radius})
		eng.SetDeleted(del)
		rejected := 0
		for qi := 0; qi < 200; qi++ {
			q := mat.Row(qi * 3)
			got, stats := eng.SearchAppend(nil, q, SearchParams{})
			want, ws := o.Answers(q, radius, 0)
			cand, collisions := all.Candidates(q)
			if stats != (QueryStats{Collisions: collisions, Unique: ws.Unique, Verified: ws.Verified, Results: ws.Results}) {
				t.Fatalf("del=%v query %d: stats %+v, oracle %+v, %d collisions", del != nil, qi, stats, ws, collisions)
			}
			SortNeighbors(got)
			if !slices.EqualFunc(got, want, func(a Neighbor, b oracle.Neighbor) bool { return a == Neighbor(b) }) {
				t.Fatalf("del=%v query %d: answers %v, oracle %v", del != nil, qi, got, want)
			}
			inRadius := 0
			for _, id := range cand {
				if (del == nil || !del.Test(int(id))) && sparse.Dot(q, mat.Row(int(id))) >= thr {
					inRadius++
				}
			}
			rejected += inRadius - ws.Results
		}
		if rejected == 0 {
			t.Fatalf("del=%v: the bound rejected no candidate within the radius; the case tests nothing", del != nil)
		}
		t.Logf("del=%v: %d in-radius candidates rejected", del != nil, rejected)
	}
}
