// Package sched provides the parallel execution substrate PLSH runs on: a
// work-stealing task pool, and a static parallel-for built on it.
//
// The paper parallelizes second-level partition construction and query
// batches with "work-stealing task queues" (§5.1.2, §5.2) because both
// workloads are irregular — one hash bucket or one query can cost far more
// than another. Hashing and histogram phases, by contrast, are uniform per
// item and use a static contiguous split (§5.1.1, "parallelized over the
// data items").
//
// Both run through one loop. Worker i owns the contiguous span
// [i·n/w, (i+1)·n/w) of a Run's n tasks behind one atomic cursor on its own
// cache line, and works through it in order; when its span is spent it takes
// single tasks from the other spans' cursors, in turn, until every cursor is
// past its end. Owner and thieves claim a task the same way, one atomic add,
// so there is no lock. The spans stay contiguous because one cursor shared by
// all workers interleaves a batch's neighbouring queries across them, which
// read 27 % slower on a 16-query batch (ROADMAP R11). Static is Run over w
// chunks: each worker's span is its one chunk, and a chunk a worker has not
// yet started can be taken by one that finished early.
package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool executes batches of indexed tasks across a fixed number of workers.
// A Pool is stateless between calls and safe for concurrent use.
type Pool struct {
	workers int
}

// NewPool returns a Pool with the given worker count; workers <= 0 selects
// runtime.GOMAXPROCS(0).
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Workers returns the configured worker count.
func (p *Pool) Workers() int { return p.workers }

// span is one worker's share [next, end) of a Run's tasks; whoever claims a
// task advances next past it.
type span struct {
	next atomic.Int64
	end  int64
	_    [48]byte // pad to a cache line to avoid false sharing between spans
}

// run is one Run call's shared state: its spans, its task function, the
// count of workers started and the wait for them.
type run struct {
	wg      sync.WaitGroup
	fn      func(task, worker int)
	spans   []span
	started atomic.Int64
}

// worker is one worker goroutine: it takes the next worker index and works.
func (r *run) worker() {
	r.work(int(r.started.Add(1) - 1))
	r.wg.Done()
}

// work is worker self's loop. Cursors only advance, so one pass from the
// worker's own span round the others finds every task left.
func (r *run) work(self int) {
	w := len(r.spans)
	for v := 0; v < w; v++ {
		s := &r.spans[(self+v)%w]
		for t := s.next.Add(1) - 1; t < s.end; t = s.next.Add(1) - 1 {
			r.fn(int(t), self)
		}
	}
}

// Run executes fn(task, worker) for every task in [0, n), distributing tasks
// over the pool's workers with single-task stealing. fn invocations for
// distinct tasks may run concurrently; Run returns after all complete.
func (p *Pool) Run(n int, fn func(task, worker int)) {
	if n <= 0 {
		return
	}
	w := min(p.workers, n)
	if w == 1 {
		for t := 0; t < n; t++ {
			fn(t, 0)
		}
		return
	}
	r := &run{fn: fn, spans: make([]span, w)}
	for i := range r.spans {
		r.spans[i].next.Store(int64(i * n / w))
		r.spans[i].end = int64((i + 1) * n / w)
	}
	// One method value serves every goroutine, so a call allocates its state,
	// its spans and this closure whatever its worker count.
	worker := r.worker
	r.wg.Add(w)
	for range w {
		go worker()
	}
	r.wg.Wait()
}

// Static executes fn(lo, hi, chunk) over an even contiguous split of [0, n)
// into min(Workers, n) chunks, chunk c being [c·n/w, (c+1)·n/w) — the
// barrier-style parallel-for used for uniform per-item phases. Callers may
// index per-chunk state by chunk: no two calls share one.
func (p *Pool) Static(n int, fn func(lo, hi, chunk int)) {
	w := min(p.workers, n)
	p.Run(w, func(c, _ int) { fn(c*n/w, (c+1)*n/w, c) })
}
