package delta

import (
	"reflect"
	"testing"

	"plsh/internal/bitvec"
	"plsh/internal/corpus"
	"plsh/internal/lshhash"
	"plsh/internal/sparse"
)

func testFamily(t *testing.T) *lshhash.Family {
	t.Helper()
	fam, err := lshhash.NewFamily(lshhash.Params{Dim: 2000, K: 8, M: 6, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return fam
}

func docs(n int, dim int, seed uint64) []sparse.Vector {
	c := corpus.Generate(corpus.Twitter(n, dim, seed))
	out := make([]sparse.Vector, n)
	for i := 0; i < n; i++ {
		out[i] = c.Mat.Row(i)
	}
	return out
}

func TestInsertAssignsSequentialIDs(t *testing.T) {
	fam := testFamily(t)
	d := New(fam, 2)
	vs := docs(50, 2000, 1)
	if first := d.Insert(vs[:20]); first != 0 {
		t.Fatalf("first batch ID = %d", first)
	}
	if first := d.Insert(vs[20:]); first != 20 {
		t.Fatalf("second batch ID = %d", first)
	}
	if d.Len() != 50 {
		t.Fatalf("Len = %d", d.Len())
	}
	if d.sk.N() != 50 {
		t.Fatalf("sketches N = %d", d.sk.N())
	}
}

// Candidates must return exactly the documents sharing ≥1 bucket with the
// query — the same candidate-set law the static engine obeys.
func TestCandidatesMatchBruteForce(t *testing.T) {
	fam := testFamily(t)
	p := fam.Params()
	d := New(fam, 4)
	vs := docs(200, 2000, 3)
	d.Insert(vs)
	seen := bitvec.New(d.Len())
	queries := docs(20, 2000, 9)
	for qi, q := range queries {
		qsk := fam.Sketch(q)
		cand, collisions := d.Candidates(qsk, seen, nil)
		seen.ResetList(cand)

		want := map[uint32]bool{}
		wantCollisions := 0
		for i, v := range vs {
			dsk := fam.Sketch(v)
			matches := 0
			for j := 0; j < p.M; j++ {
				if qsk[j] == dsk[j] {
					matches++
				}
			}
			if matches >= 2 {
				want[uint32(i)] = true
				wantCollisions += matches * (matches - 1) / 2
			}
		}
		if len(cand) != len(want) {
			t.Fatalf("query %d: %d candidates, want %d", qi, len(cand), len(want))
		}
		for _, id := range cand {
			if !want[id] {
				t.Fatalf("query %d: unexpected candidate %d", qi, id)
			}
		}
		if collisions != wantCollisions {
			t.Fatalf("query %d: collisions %d, want %d", qi, collisions, wantCollisions)
		}
	}
}

func TestCandidatesDeduplicated(t *testing.T) {
	fam := testFamily(t)
	d := New(fam, 1)
	vs := docs(100, 2000, 5)
	d.Insert(vs)
	seen := bitvec.New(d.Len())
	// Query with an indexed document: it collides in all L tables but must
	// appear once.
	qsk := fam.Sketch(vs[7])
	cand, collisions := d.Candidates(qsk, seen, nil)
	if collisions < fam.Params().L() {
		t.Fatalf("self query should collide in all %d tables, got %d", fam.Params().L(), collisions)
	}
	counts := map[uint32]int{}
	for _, id := range cand {
		counts[id]++
	}
	if counts[7] != 1 {
		t.Fatalf("self appears %d times", counts[7])
	}
	seen.ResetList(cand)
	if seen.Count() != 0 {
		t.Fatal("ResetList contract violated")
	}
}

func TestInsertParallelMatchesSerial(t *testing.T) {
	fam := testFamily(t)
	vs := docs(300, 2000, 7)
	d1 := New(fam, 1)
	d8 := New(fam, 8)
	d1.Insert(vs)
	d8.Insert(vs)
	seen1 := bitvec.New(300)
	seen8 := bitvec.New(300)
	for _, q := range docs(10, 2000, 11) {
		qsk := fam.Sketch(q)
		c1, n1 := d1.Candidates(qsk, seen1, nil)
		c8, n8 := d8.Candidates(qsk, seen8, nil)
		seen1.ResetList(c1)
		seen8.ResetList(c8)
		if n1 != n8 || len(c1) != len(c8) {
			t.Fatalf("parallel insert diverged: %d/%d vs %d/%d", n1, len(c1), n8, len(c8))
		}
	}
}

// TestSketchesMatchFamily: a table's sketches are the family's, half-key by
// half-key, and its sign-bit column row i is document i's sketch packed —
// while it is filled, once frozen, and after a coalesce that drops
// tombstoned rows from the buckets (not from the column).
func TestSketchesMatchFamily(t *testing.T) {
	fam := testFamily(t)
	p := fam.Params()
	vs := docs(40, 2000, 17)
	d := New(fam, 2)
	d.Insert(vs[:15])
	d.Insert(vs[15:])
	check := func(what string, d *Table) {
		t.Helper()
		want := make([]uint64, p.SketchWords())
		for i, v := range vs {
			sketch := fam.Sketch(v)
			for j := range sketch {
				if d.sk.At(i, j) != sketch[j] {
					t.Fatalf("%s: sketch %d fn %d differs", what, i, j)
				}
			}
			p.Pack(want, sketch)
			if got := d.Signs()[i*len(want) : (i+1)*len(want)]; !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: sign-bit row %d = %x, want %x", what, i, got, want)
			}
		}
	}
	check("filling", d)
	d.Freeze()
	check("frozen", d)
	a, b := New(fam, 1), New(fam, 1)
	a.Insert(vs[:25])
	b.Insert(vs[25:])
	a.Freeze()
	b.Freeze()
	check("coalesced with tombstones", Coalesce(fam, a, b, 2, func(id int) bool { return id%3 == 0 }))
}

func TestMemoryBytesGrows(t *testing.T) {
	fam := testFamily(t)
	d := New(fam, 1)
	before := d.MemoryBytes()
	d.Insert(docs(100, 2000, 19))
	if d.MemoryBytes() <= before {
		t.Fatal("MemoryBytes did not grow after insert")
	}
}

func TestEmptyInsert(t *testing.T) {
	fam := testFamily(t)
	d := New(fam, 2)
	if first := d.Insert(nil); first != 0 {
		t.Fatalf("empty insert returned %d", first)
	}
	if d.Len() != 0 {
		t.Fatal("empty insert changed Len")
	}
}

func TestFreezeMakesTableImmutable(t *testing.T) {
	fam := testFamily(t)
	d := New(fam, 2)
	vs := docs(60, 2000, 21)
	d.Insert(vs[:40])
	d.Freeze()
	if !d.IsFrozen() {
		t.Fatal("IsFrozen false after Freeze")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Insert on frozen table did not panic")
			}
		}()
		d.Insert(vs[40:])
	}()
	// Reads still work on a frozen table.
	seen := bitvec.New(d.Len())
	cand, _ := d.Candidates(fam.Sketch(vs[3]), seen, nil)
	found := false
	for _, id := range cand {
		if id == 3 {
			found = true
		}
	}
	if !found {
		t.Fatal("frozen table lost a document")
	}
}

// Coalesce(a, b) must answer candidate queries exactly like a table built
// by inserting a's rows then b's rows, minus skipped rows.
func TestCoalesceMatchesSequentialInsert(t *testing.T) {
	fam := testFamily(t)
	vs := docs(300, 2000, 23)
	a := New(fam, 2)
	a.Insert(vs[:100])
	a.Freeze()
	b := New(fam, 2)
	b.Insert(vs[100:])
	b.Freeze()

	ref := New(fam, 2)
	ref.Insert(vs)

	skip := func(i int) bool { return i%11 == 4 }
	merged := Coalesce(fam, a, b, 2, skip)
	if !merged.IsFrozen() {
		t.Fatal("Coalesce returned unfrozen table")
	}
	if merged.Len() != 300 {
		t.Fatalf("merged Len = %d, want 300 (skipped rows still count)", merged.Len())
	}

	seenM := bitvec.New(300)
	seenR := bitvec.New(300)
	for qi, q := range docs(25, 2000, 25) {
		qsk := fam.Sketch(q)
		cm, _ := merged.Candidates(qsk, seenM, nil)
		cr, _ := ref.Candidates(qsk, seenR, nil)
		seenM.ResetList(cm)
		seenR.ResetList(cr)
		want := map[uint32]bool{}
		for _, id := range cr {
			if !skip(int(id)) {
				want[id] = true
			}
		}
		if len(cm) != len(want) {
			t.Fatalf("query %d: %d candidates, want %d", qi, len(cm), len(want))
		}
		for _, id := range cm {
			if !want[id] {
				t.Fatalf("query %d: unexpected candidate %d", qi, id)
			}
		}
	}
}

// pairwiseCascade folds a run the way the node did before CoalesceRun: the
// newest two tables first, the result with the next older, and so on — each
// fold a two-table Coalesce. It is the reference the one-pass fold is checked
// against. skip speaks the run's local IDs.
func pairwiseCascade(fam *lshhash.Family, run []*Table, skip func(int) bool) *Table {
	base := 0
	for _, t := range run[:len(run)-1] {
		base += t.Len()
	}
	acc := run[len(run)-1]
	for i := len(run) - 2; i >= 0; i-- {
		base -= run[i].Len()
		at := base
		acc = Coalesce(fam, run[i], acc, 2, func(j int) bool { return skip(at + j) })
	}
	return acc
}

// frozenRun splits vs into frozen tables of the given sizes, oldest first.
func frozenRun(fam *lshhash.Family, vs []sparse.Vector, sizes []int) []*Table {
	var run []*Table
	for _, size := range sizes {
		t := New(fam, 2)
		t.Insert(vs[:size])
		t.Freeze()
		vs = vs[size:]
		run = append(run, t)
	}
	return run
}

// TestCoalesceRunMatchesPairwiseCascade: folding a run in one pass leaves
// the table the pairwise cascade of the same run leaves — same Len, same
// sketches, same buckets in the same order, same occupancy — with the
// tombstoned rows in no bucket.
func TestCoalesceRunMatchesPairwiseCascade(t *testing.T) {
	fam := testFamily(t)
	for _, sizes := range [][]int{{100, 100}, {64, 32, 16, 8, 4, 2, 1, 1}, {90, 50, 20, 11, 7}, {1, 1, 1}} {
		total := 0
		for _, size := range sizes {
			total += size
		}
		run := frozenRun(fam, docs(total, 2000, 31), sizes)
		skip := func(i int) bool { return i%7 == 3 }
		got := CoalesceRun(fam, run, 3, skip)
		want := pairwiseCascade(fam, run, skip)
		if !got.IsFrozen() || got.Len() != total || want.Len() != total {
			t.Fatalf("run %v: frozen=%v Len=%d, cascade Len=%d, want %d", sizes, got.IsFrozen(), got.Len(), want.Len(), total)
		}
		if !reflect.DeepEqual(got.sk, want.sk) {
			t.Fatalf("run %v: sketches differ from the cascade's", sizes)
		}
		if !reflect.DeepEqual(got.buckets, want.buckets) {
			t.Fatalf("run %v: buckets differ from the cascade's", sizes)
		}
		if !reflect.DeepEqual(got.occ, want.occ) {
			t.Fatalf("run %v: occupancy bitmaps differ from the cascade's", sizes)
		}
		for l, m := range got.buckets {
			for key, ids := range m {
				for _, id := range ids {
					if skip(int(id)) {
						t.Fatalf("run %v: table %d bucket %d kept tombstoned row %d", sizes, l, key, id)
					}
				}
			}
		}
	}
}

func TestFromSketchesReusesHashes(t *testing.T) {
	fam := testFamily(t)
	vs := docs(80, 2000, 27)
	src := New(fam, 2)
	src.Insert(vs)
	src.Freeze()
	rebuilt := fromSketches(fam, src.sk, 2, nil)
	if rebuilt.Len() != 80 {
		t.Fatalf("Len = %d", rebuilt.Len())
	}
	// Total bucket entries across tables must match the source exactly.
	count := func(d *Table) int {
		total := 0
		for _, m := range d.buckets {
			for _, ids := range m {
				total += len(ids)
			}
		}
		return total
	}
	if got, want := count(rebuilt), count(src); got != want {
		t.Fatalf("bucket entries %d, want %d", got, want)
	}
}
