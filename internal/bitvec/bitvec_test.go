package bitvec

import (
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func TestSetTestClear(t *testing.T) {
	v := New(200)
	if v.Len() != 200 {
		t.Fatalf("Len = %d, want 200", v.Len())
	}
	for i := 0; i < 200; i += 3 {
		v.Set(i)
	}
	for i := 0; i < 200; i++ {
		want := i%3 == 0
		if v.Test(i) != want {
			t.Fatalf("Test(%d) = %v, want %v", i, v.Test(i), want)
		}
	}
	v.ResetList(v.AppendSet(nil))
	if v.Count() != 0 {
		t.Fatalf("Count after clearing = %d, want 0", v.Count())
	}
}

func TestTestAndSet(t *testing.T) {
	v := New(100)
	if !v.TestAndSet(37) {
		t.Fatal("first TestAndSet returned false")
	}
	if v.TestAndSet(37) {
		t.Fatal("second TestAndSet returned true")
	}
	if !v.Test(37) {
		t.Fatal("bit not set after TestAndSet")
	}
}

func TestWordBoundaries(t *testing.T) {
	v := New(130)
	for _, i := range []int{0, 63, 64, 127, 128, 129} {
		if v.Test(i) {
			t.Fatalf("bit %d set in fresh vector", i)
		}
		v.Set(i)
		if !v.Test(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if v.Count() != 6 {
		t.Fatalf("Count = %d, want 6", v.Count())
	}
}

func TestReset(t *testing.T) {
	v := New(500)
	for i := 0; i < 500; i += 7 {
		v.Set(i)
	}
	v.Reset()
	if v.Count() != 0 {
		t.Fatalf("Count after Reset = %d", v.Count())
	}
}

func TestResetList(t *testing.T) {
	v := New(1000)
	marked := []uint32{3, 64, 65, 999, 128}
	for _, i := range marked {
		v.Set(int(i))
	}
	v.Set(500) // not in the list; must survive
	v.ResetList(marked)
	if v.Count() != 1 || !v.Test(500) {
		t.Fatalf("ResetList cleared wrong bits; count=%d", v.Count())
	}
}

func TestAppendSetSortedUnique(t *testing.T) {
	v := New(300)
	input := []int{299, 0, 64, 63, 65, 128, 5, 5, 64}
	for _, i := range input {
		v.Set(i)
	}
	got := v.AppendSet(nil)
	want := []uint32{0, 5, 63, 64, 65, 128, 299}
	if len(got) != len(want) {
		t.Fatalf("AppendSet returned %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AppendSet[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestAppendSetExtendsDst(t *testing.T) {
	v := New(64)
	v.Set(7)
	dst := []uint32{42}
	got := v.AppendSet(dst)
	if len(got) != 2 || got[0] != 42 || got[1] != 7 {
		t.Fatalf("AppendSet did not extend dst: %v", got)
	}
}

func TestGrowPreserves(t *testing.T) {
	v := New(10)
	v.Set(3)
	v.Set(9)
	v = v.Grow(1000)
	if v.Len() != 1000 {
		t.Fatalf("Len after Grow = %d", v.Len())
	}
	if !v.Test(3) || !v.Test(9) {
		t.Fatal("Grow lost bits")
	}
	if v.Count() != 2 {
		t.Fatalf("Count after Grow = %d, want 2", v.Count())
	}
	v.Set(999)
	if !v.Test(999) {
		t.Fatal("cannot set bit in grown region")
	}
	// Growing smaller is a no-op.
	if v.Grow(5).Len() != 1000 {
		t.Fatal("Grow shrank the vector")
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

// Property: for any set of indexes, AppendSet returns exactly the distinct
// indexes in sorted order, and Count matches.
func TestQuickAppendSetMatchesMap(t *testing.T) {
	f := func(raw []uint16) bool {
		const n = 1 << 16
		v := New(n)
		set := map[uint32]bool{}
		for _, r := range raw {
			v.Set(int(r))
			set[uint32(r)] = true
		}
		got := v.AppendSet(nil)
		if len(got) != len(set) || v.Count() != len(set) {
			return false
		}
		if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
			return false
		}
		for _, g := range got {
			if !set[g] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: TestAndSet returns true exactly once per index.
func TestQuickTestAndSetOnce(t *testing.T) {
	f := func(raw []uint16) bool {
		v := New(1 << 16)
		firsts := map[uint16]bool{}
		for _, r := range raw {
			first := v.TestAndSet(int(r))
			if first && firsts[r] {
				return false // claimed first twice
			}
			if !first && !firsts[r] {
				return false // never claimed first
			}
			firsts[r] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Atomic accessors must agree with the plain ones and survive concurrent
// setters — the deletion-tombstone contract of the node's snapshot model.
func TestAtomicOps(t *testing.T) {
	v := New(256)
	v.SetAtomic(0)
	v.SetAtomic(63)
	v.SetAtomic(64)
	v.SetAtomic(255)
	for _, i := range []int{0, 63, 64, 255} {
		if !v.TestAtomic(i) || !v.Test(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if v.TestAtomic(1) || v.TestAtomic(128) {
		t.Fatal("unset bit reads set")
	}
	if v.CountAtomic() != 4 || v.Count() != 4 {
		t.Fatalf("count = %d/%d, want 4", v.CountAtomic(), v.Count())
	}
}

func TestAtomicConcurrentSetters(t *testing.T) {
	const n = 1 << 12
	v := New(n)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n; i += 8 {
				v.SetAtomic(i)
				if !v.TestAtomic(i) {
					t.Errorf("bit %d lost", i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := v.CountAtomic(); got != n {
		t.Fatalf("count = %d, want %d (concurrent ORs dropped bits)", got, n)
	}
}
