package main

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"plsh"
	"plsh/internal/rng"
)

// warmupSeconds is the untimed lead-in before every measured window: the
// same load runs, nothing is recorded.
const warmupSeconds = 1.0

// recentRing is how many of the most recently acknowledged documents the
// stream_ingest searchers draw every fourth query from.
const recentRing = 50

func nproc() int { return runtime.NumCPU() }

// quantile is the nearest-rank quantile of an ascending sample.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// tailQuantile is the highest of p50/p90/p95/p99/p999 no greater than want
// that still has at least ten samples beyond it.
func tailQuantile(n int, want float64) float64 {
	best := 0.5
	for _, q := range []float64{0.9, 0.95, 0.99, 0.999} {
		if q <= want && float64(n)*(1-q) >= 10 {
			best = q
		}
	}
	return best
}

// windowSlices is how many equal slices a window is cut into. Every gated
// timing is the median of the slices' own readings, not one reading of the
// whole window: the sandbox is a few cores of a shared host, and a
// neighbour's burst that lands in fewer than half the slices then moves
// nothing, where it would drag a whole-window throughput down with it.
const windowSlices = 8

// window is one measured interval with its untimed warm-up before it.
type window struct {
	warm  time.Time // load starts
	start time.Time // recording starts
	end   time.Time // load stops
}

func newWindow(seconds float64) window {
	warm := time.Now()
	start := warm.Add(time.Duration(warmupSeconds * float64(time.Second)))
	return window{warm: warm, start: start, end: start.Add(time.Duration(seconds * float64(time.Second)))}
}

func (w window) seconds() float64 { return w.end.Sub(w.start).Seconds() }

// sliceOf is the slice a call that completed at t (inside the window)
// belongs to.
func (w window) sliceOf(t time.Time) int {
	i := int(int64(t.Sub(w.start)) * windowSlices / int64(w.end.Sub(w.start)))
	return min(max(i, 0), windowSlices-1)
}

// sliced is a latency sample kept slice by slice: bins[i] holds the
// latencies (ns) of the calls that completed in slice i of the window, and
// last[i] when the last of them completed, as time since the window began.
type sliced struct {
	bins [windowSlices][]int64
	last [windowSlices]time.Duration
}

func (s *sliced) add(slice int, ns int64, at time.Duration) {
	s.bins[slice] = append(s.bins[slice], ns)
	s.last[slice] = max(s.last[slice], at)
}

func (s *sliced) count() (n int) {
	for _, b := range s.bins {
		n += len(b)
	}
	return n
}

// sorted is the whole window's sample, ascending: what the ungated tail
// percentiles are read from.
func (s *sliced) sorted() []int64 {
	all := make([]int64, 0, s.count())
	for _, b := range s.bins {
		all = append(all, b...)
	}
	slices.Sort(all)
	return all
}

// p50 is the median, over the slices that hold a sample, of each slice's
// own median latency, in ns.
func (s *sliced) p50() float64 {
	var meds []float64
	for _, b := range s.bins {
		if len(b) > 0 {
			b = slices.Clone(b)
			slices.Sort(b)
			meds = append(meds, float64(quantile(b, 0.5)))
		}
	}
	if len(meds) == 0 {
		return 0
	}
	return median(meds)
}

// rate is the median over the slices of what a slice completed per
// second, each call counting for per units (queries, documents). A slice's
// time runs from the previous slice's last completion to its own, not
// between the slice's borders: a count over a fixed interval moves in
// steps of one call, and a paced load would read the same number every
// run. A slice in which nothing completed reads 0.
func (s *sliced) rate(per int) float64 {
	rates := make([]float64, windowSlices)
	var prev time.Duration
	for i, b := range s.bins {
		if len(b) > 0 && s.last[i] > prev {
			rates[i] = float64(len(b)*per) / (s.last[i] - prev).Seconds()
			prev = s.last[i]
		}
	}
	return median(rates)
}

// searchLoad describes the closed-loop search clients of a workload.
type searchLoad struct {
	clients int
	batch   int                 // queries per call: 1 → Search, more → SearchBatch
	k       int                 // WithK bound carried in opts (0: none)
	opts    []plsh.SearchOption // request options
	recent  *recentDocs         // when set, every fourth query is a recently acknowledged row
	between func()              // when set, every client calls it before each call: fleet_mixed's paced inserts
}

// recentDocs is a lock-free ring of the most recently acknowledged rows.
type recentDocs struct {
	ring [recentRing]atomic.Int32
	n    atomic.Int64
}

func (r *recentDocs) push(row int) {
	i := r.n.Load()
	r.ring[i%recentRing].Store(int32(row))
	r.n.Store(i + 1)
}

func (r *recentDocs) pick(src *rng.Source) (int, bool) {
	n := r.n.Load()
	if n == 0 {
		return 0, false
	}
	return int(r.ring[src.Intn(int(min(n, recentRing)))].Load()), true
}

// clientSamples is what one search client recorded inside the window:
// each call's latency (ns) and the slice it completed in. Preallocated, so
// recording does not allocate.
type clientSamples struct {
	lat   []int64
	slice []uint8
	last  [windowSlices]time.Duration // per slice: when its last call completed, since the window began
}

// runSearchers drives load.clients closed-loop clients until the window
// ends: each sends its next call only when the previous one has returned
// and been verified. Calls that start before the window or end after it
// are sent and verified but not recorded.
func runSearchers(ctx context.Context, idx plsh.Index, m *mirror, in *inputs, load searchLoad, win window) *sliced {
	per := make([]clientSamples, load.clients)
	var wg sync.WaitGroup
	for c := 0; c < load.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			per[c] = searchClient(ctx, idx, m, in, load, win, c)
		}(c)
	}
	wg.Wait()
	all := &sliced{}
	for _, s := range per {
		for i, ns := range s.lat {
			all.add(int(s.slice[i]), ns, s.last[s.slice[i]])
		}
	}
	return all
}

func searchClient(ctx context.Context, idx plsh.Index, m *mirror, in *inputs, load searchLoad, win window, c int) clientSamples {
	src := rng.New(in.seed*1000003 + uint64(c) + 17)
	// Each client starts at its own offset of the shared pool.
	next := c * len(in.queries) / load.clients
	// Sized so the window appends without growing: 50 000 calls/s is
	// beyond what one client reaches on any workload.
	room := int(win.seconds()*50000) + 1024
	out := clientSamples{lat: make([]int64, 0, room), slice: make([]uint8, 0, room)}
	rows := make([]int, load.batch)
	qs := make([]plsh.Vector, load.batch)
	single := make([]plsh.Result, 1)
	for n := 0; ; n++ {
		for i := range rows {
			rows[i] = int(in.queries[next%len(in.queries)])
			next++
			if load.recent != nil && n%4 == 3 {
				if r, ok := load.recent.pick(src); ok {
					rows[i] = r
				}
			}
			qs[i] = in.docs[rows[i]]
		}
		if load.between != nil {
			load.between()
		}
		started := m.now()
		t0 := time.Now()
		if !t0.Before(win.end) {
			return out
		}
		var results []plsh.Result
		var err error
		if load.batch == 1 {
			single[0], err = idx.Search(ctx, qs[0], load.opts...)
			results = single
		} else {
			results, _, err = idx.SearchBatch(ctx, qs, load.opts...)
		}
		t1 := time.Now()
		if !t0.Before(win.start) && !t1.After(win.end) {
			sl := win.sliceOf(t1)
			out.lat = append(out.lat, int64(t1.Sub(t0)))
			out.slice = append(out.slice, uint8(sl))
			out.last[sl] = t1.Sub(win.start)
		}
		if err != nil {
			m.countOp(err, "search")
			continue
		}
		for i, res := range results {
			m.checkAnswer(rows[i], started, load.k, res.Matches)
		}
	}
}

// insertSamples is what a writer recorded inside the window.
type insertSamples struct {
	sliced         // per-batch acknowledgement latency, ns, by the slice the acknowledgement fell in
	lag    []int64 // open loop only: how late each batch was sent, ns, ascending
	// open loop only: batches due a full second before the window's end
	// and still unacknowledged at it, and whether lateness was still
	// growing over the window's second half.
	unacked int
	growing bool
	ranDry  bool
	next    int // closed loop only: the first corpus row not yet sent
}

func (s *insertSamples) record(win window, from, acked time.Time) {
	s.add(win.sliceOf(acked), int64(acked.Sub(from)), acked.Sub(win.start))
}

// streamWriter is stream_ingest's closed-loop writer: batches of fresh
// documents back to back, one Delete of a random earlier acknowledged
// document after each.
func streamWriter(ctx context.Context, idx plsh.Index, m *mirror, in *inputs, next int, recent *recentDocs, win window) insertSamples {
	src := rng.New(in.seed*7919 + 3)
	var out insertSamples
	batch := in.sz.streamBatch
	for {
		if next+batch > len(in.docs) {
			out.ranDry = true
			break
		}
		t0 := time.Now()
		if !t0.Before(win.end) {
			break
		}
		ids, err := idx.Insert(ctx, in.docs[next:next+batch])
		t1 := time.Now()
		m.countOp(err, "insert")
		if err == nil {
			m.acknowledge(next, ids)
			for i := range ids {
				recent.push(next + i)
			}
			if !t0.Before(win.start) && !t1.After(win.end) {
				out.record(win, t0, t1)
			}
		}
		next += batch
		// One delete per batch, of a live acknowledged row (base set or
		// stream), chosen by the seed.
		victim := src.Intn(next)
		if id, ok := m.id(victim); ok && m.del[victim].CompareAndSwap(0, -1) {
			err := idx.Delete(ctx, id)
			m.countOp(err, "delete")
			if err == nil {
				m.del[victim].Store(m.now())
				m.dels.Add(1)
			}
		}
	}
	out.next = next
	return out
}

// pacedWriter is fleet_mixed's open-loop writer: one batch falls due every
// period whether or not the fleet keeps up — the tweet stream does not
// wait for the index. A batch's latency runs from the moment it was due,
// so a stall is charged to every batch queued behind it.
//
// It has no goroutine of its own. Each of fleet_mixed's clients calls
// sendDue before its next search, and the one that finds a batch due and
// nobody sending it sends it: nproc operations are in flight at every
// moment, an insert among them when one is due. A writer goroutine beside
// the searchers made it nproc+1 over four node processes and a coordinator
// that already outnumber the sandbox's cores, and what that measured was
// the host's scheduler: the search median of one binary doubled in a run
// now and then while the workloads run in alternation with it stood still.
type pacedWriter struct {
	mu   sync.Mutex // held by the client that is sending
	ctx  context.Context
	idx  plsh.Index
	m    *mirror
	in   *inputs
	win  window
	next int // first corpus row not yet sent
	sent int // batches that have fallen due and were dealt with
	out  insertSamples
	// Lateness of each recorded batch, in send order, for the backlog test.
	lagSeq []int64
}

func (w *pacedWriter) due(i int) time.Time {
	return w.win.warm.Add(time.Duration(i*w.in.sz.paceEveryMS) * time.Millisecond)
}

// sendDue sends every batch that has fallen due, back to back — unless
// another client is already doing so.
func (w *pacedWriter) sendDue() {
	if !w.mu.TryLock() {
		return
	}
	defer w.mu.Unlock()
	batch := w.in.sz.paceBatch
	for !w.out.ranDry {
		due, t0 := w.due(w.sent), time.Now()
		if due.After(t0) || !t0.Before(w.win.end) {
			return
		}
		if w.next+batch > len(w.in.docs) {
			w.out.ranDry = true
			return
		}
		w.sent++
		ids, err := w.idx.Insert(w.ctx, w.in.docs[w.next:w.next+batch])
		t1 := time.Now()
		w.m.countOp(err, "insert")
		if err == nil {
			w.m.acknowledge(w.next, ids)
		}
		w.next += batch
		if due.Before(w.win.start) {
			continue
		}
		if t1.After(w.win.end) {
			w.sent-- // finish counts it among the unacknowledged
			return
		}
		if err == nil {
			w.out.record(w.win, due, t1)
		}
		w.lagSeq = append(w.lagSeq, int64(t0.Sub(due)))
	}
}

// finish closes the books at the window's end.
func (w *pacedWriter) finish() insertSamples {
	// Due at least a second before the window closed and not acknowledged
	// inside it: a failed operation each.
	for i := w.sent; w.due(i).Before(w.win.end.Add(-time.Second)); i++ {
		w.out.unacked++
	}
	// Backlog still growing: the last quarter's median lateness exceeds
	// both one period and twice the third quarter's.
	if n := len(w.lagSeq); n >= 8 {
		q3 := slices.Clone(w.lagSeq[n/2 : 3*n/4])
		q4 := slices.Clone(w.lagSeq[3*n/4:])
		slices.Sort(q3)
		slices.Sort(q4)
		late3, late4 := quantile(q3, 0.5), quantile(q4, 0.5)
		w.out.growing = late4 > int64(w.in.sz.paceEveryMS)*int64(time.Millisecond) && late4 > 2*late3
	}
	w.out.lag = w.lagSeq
	slices.Sort(w.out.lag)
	return w.out
}
