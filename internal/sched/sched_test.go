package sched

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunExecutesEachTaskOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 16} {
		for _, n := range []int{0, 1, 2, 7, 100, 1000} {
			p := NewPool(workers)
			counts := make([]int32, n)
			p.Run(n, func(task, worker int) {
				atomic.AddInt32(&counts[task], 1)
			})
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: task %d ran %d times", workers, n, i, c)
				}
			}
		}
	}
}

func TestRunWorkerIDsInRange(t *testing.T) {
	p := NewPool(4)
	var bad int32
	p.Run(200, func(task, worker int) {
		if worker < 0 || worker >= 4 {
			atomic.AddInt32(&bad, 1)
		}
	})
	if bad != 0 {
		t.Fatalf("%d tasks saw out-of-range worker IDs", bad)
	}
}

func TestRunStealsSkewedWork(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs ≥2 CPUs")
	}
	// All the expensive tasks land in worker 0's initial range; stealing
	// must spread them out. With 4 workers and 8 slow tasks of 10ms, a
	// no-stealing schedule takes ≥80ms; stealing should cut that roughly
	// in half or better.
	p := NewPool(4)
	const n = 64
	start := time.Now()
	p.Run(n, func(task, worker int) {
		if task < 8 { // first 8 tasks are slow and initially all worker 0's
			time.Sleep(10 * time.Millisecond)
		}
	})
	elapsed := time.Since(start)
	if elapsed > 70*time.Millisecond {
		t.Errorf("skewed batch took %v; stealing appears ineffective", elapsed)
	}
}

func TestStaticCoversExactly(t *testing.T) {
	for _, workers := range []int{1, 2, 5, 8} {
		for _, n := range []int{0, 1, 5, 64, 1001} {
			p := NewPool(workers)
			covered := make([]int32, n)
			p.Static(n, func(lo, hi, worker int) {
				if lo > hi || lo < 0 || hi > n {
					t.Errorf("bad range [%d,%d)", lo, hi)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&covered[i], 1)
				}
			})
			for i, c := range covered {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: index %d covered %d times", workers, n, i, c)
				}
			}
		}
	}
}

func TestNewPoolDefaults(t *testing.T) {
	if NewPool(0).Workers() != runtime.GOMAXPROCS(0) {
		t.Fatal("NewPool(0) did not default to GOMAXPROCS")
	}
	if NewPool(-3).Workers() != runtime.GOMAXPROCS(0) {
		t.Fatal("NewPool(-3) did not default to GOMAXPROCS")
	}
	if NewPool(5).Workers() != 5 {
		t.Fatal("explicit worker count not honored")
	}
}

func TestRunConcurrentUse(t *testing.T) {
	// A single Pool value must support concurrent Run calls.
	p := NewPool(4)
	done := make(chan bool, 2)
	for g := 0; g < 2; g++ {
		go func() {
			counts := make([]int32, 500)
			p.Run(500, func(task, worker int) { atomic.AddInt32(&counts[task], 1) })
			ok := true
			for _, c := range counts {
				if c != 1 {
					ok = false
				}
			}
			done <- ok
		}()
	}
	for g := 0; g < 2; g++ {
		if !<-done {
			t.Fatal("concurrent Run corrupted task execution")
		}
	}
}

func TestRunStealsFromHeldOwner(t *testing.T) {
	// Worker 0 owns tasks 0…3 and worker 1 owns 4…7. Task 0 holds until
	// 1…7 have all run, so its worker cannot reach 1…3 itself: the call
	// completes in time only if the other worker takes them from worker 0's
	// span. (If worker 1 claims task 0 first, worker 0 runs 1…3 and steals
	// nothing; the held task still ends.)
	p := NewPool(2)
	const n = 8
	var others atomic.Int32
	rest := make(chan struct{})
	var held atomic.Bool
	var ranBy atomic.Int32 // of tasks 1…7, how many had run when task 0 gave up
	p.Run(n, func(task, worker int) {
		if task != 0 {
			if others.Add(1) == n-1 {
				close(rest)
			}
			return
		}
		select {
		case <-rest:
		case <-time.After(5 * time.Second):
			ranBy.Store(others.Load())
			held.Store(true)
		}
	})
	if held.Load() {
		t.Fatalf("task 0 held its worker 5 s while only %d of tasks 1…7 ran: none was stolen", ranBy.Load())
	}
}

func TestStaticChunkBounds(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		for _, n := range []int{1, 2, 5, 64, 1001} {
			w := min(workers, n)
			lo := make([]atomic.Int64, w)
			hi := make([]atomic.Int64, w)
			seen := make([]atomic.Int32, w)
			NewPool(workers).Static(n, func(l, h, chunk int) {
				seen[chunk].Add(1)
				lo[chunk].Store(int64(l))
				hi[chunk].Store(int64(h))
			})
			for c := 0; c < w; c++ {
				if seen[c].Load() != 1 || lo[c].Load() != int64(c*n/w) || hi[c].Load() != int64((c+1)*n/w) {
					t.Fatalf("workers=%d n=%d: chunk %d ran %d times, last as [%d,%d), want once as [%d,%d)",
						workers, n, c, seen[c].Load(), lo[c].Load(), hi[c].Load(), c*n/w, (c+1)*n/w)
				}
			}
		}
	}
}

// TestRunAllocationCeiling: a Run allocates its shared state, its spans and
// the one closure its worker goroutines share, whatever its worker count, and
// nothing per task.
func TestRunAllocationCeiling(t *testing.T) {
	var sum atomic.Int64
	fn := func(task, _ int) { sum.Add(int64(task)) }
	for _, workers := range []int{2, 4} {
		p := NewPool(workers)
		for _, n := range []int{2, 16, 1000} {
			if allocs := testing.AllocsPerRun(200, func() { p.Run(n, fn) }); allocs > 3 {
				t.Errorf("Run(%d) at %d workers allocates %.1f times, want at most 3", n, workers, allocs)
			}
		}
	}
}
