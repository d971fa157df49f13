package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"plsh"
	"plsh/internal/clustertest"
)

// env is what a run was asked for, plus the two things every exit path
// must release: the scratch directory all data directories live under,
// and the node processes still running.
type env struct {
	sz      sizes
	seed    uint64
	seconds float64
	layers  bool   // --trace 1: one set-up, live layer metrics, then the ladder
	tmp     string // scratch root; removed by main on every exit path

	mu     sync.Mutex
	fleets map[*clustertest.Fleet]struct{}
	dirs   int
}

// newDir creates a fresh directory under the scratch root.
func (e *env) newDir(prefix string) (string, error) {
	e.mu.Lock()
	e.dirs++
	dir := filepath.Join(e.tmp, fmt.Sprintf("%s-%d", prefix, e.dirs))
	e.mu.Unlock()
	return dir, os.MkdirAll(dir, 0o755)
}

func (e *env) trackFleet(f *clustertest.Fleet, live bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.fleets == nil {
		e.fleets = map[*clustertest.Fleet]struct{}{}
	}
	if live {
		e.fleets[f] = struct{}{}
	} else {
		delete(e.fleets, f)
	}
}

// killFleets SIGKILLs every node process still running; the interrupt
// handler's half of "children are killed on every exit path".
func (e *env) killFleets() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for f := range e.fleets {
		f.KillAll()
	}
	e.fleets = nil
}

// system is one opened system under test.
type system struct {
	e        *env
	idx      plsh.Index
	store    *plsh.Store   // in-process workloads
	cluster  *plsh.Cluster // fleet workloads
	fleet    *clustertest.Fleet
	cfg      plsh.Config // in-process: what Open was given, for re-opens
	dir      string      // data directory ("" for the in-memory store)
	openTime time.Duration
}

// close releases the system: connections and journals, node processes,
// the data directory.
func (s *system) close(ctx context.Context) {
	if s.store != nil && s.dir != "" {
		// Barrier for a background checkpoint Close would not wait for
		// (see recoverStream): it must not write into a removed directory.
		_ = s.store.Save(ctx)
	}
	if s.idx != nil {
		_ = s.idx.Close() // teardown of a system we are abandoning
	}
	if s.fleet != nil {
		s.fleet.KillAll()
		s.e.trackFleet(s.fleet, false)
	}
	if s.dir != "" {
		_ = os.RemoveAll(s.dir)
	}
}

// workloadDef is one row of the issue's workload table.
type workloadDef struct {
	name string
	// fresh is how many stream documents beyond the base set the run may
	// consume.
	fresh func(sz sizes, seconds float64) int
	open  func(ctx context.Context, e *env) (*system, error)
	load  func(sz sizes) searchLoad
	// writer is "" (read-only), "stream" (closed loop, with deletes) or
	// "paced" (open loop).
	writer string
}

var workloads = []workloadDef{
	{
		name:  "static_query",
		fresh: func(sizes, float64) int { return 0 },
		open: func(ctx context.Context, e *env) (*system, error) {
			return openStore(ctx, e, "", plsh.Config{Dim: vocabSize, Capacity: staticCapacity, DeltaFraction: staticDeltaFraction})
		},
		load: func(sizes) searchLoad { return searchLoad{clients: nproc(), batch: 1} },
	},
	{
		name: "stream_ingest",
		fresh: func(sz sizes, seconds float64) int {
			return sz.recoverDocs + int((seconds+warmupSeconds+1)*15000)
		},
		open: func(ctx context.Context, e *env) (*system, error) {
			dir, err := e.newDir("stream")
			if err != nil {
				return nil, err
			}
			return openStore(ctx, e, dir, plsh.Config{
				Dim:           vocabSize,
				Capacity:      streamCapacity,
				DeltaFraction: float64(e.sz.mergeTrigger) / streamCapacity,
			})
		},
		load: func(sizes) searchLoad {
			return searchLoad{clients: max(1, nproc()-1), batch: 1, recent: &recentDocs{}}
		},
		writer: "stream",
	},
	{
		name: "fleet_mixed",
		fresh: func(sz sizes, seconds float64) int {
			perSecond := float64(sz.paceBatch) * 1000 / float64(sz.paceEveryMS)
			return int((seconds + warmupSeconds + 1) * perSecond)
		},
		open: func(ctx context.Context, e *env) (*system, error) {
			return openFleet(ctx, e, 2, plsh.WithReplicas(2))
		},
		load: func(sizes) searchLoad {
			// The paced inserts go out between these clients' searches
			// (see pacedWriter): nproc operations in flight, never more.
			return searchLoad{clients: nproc(), batch: 1, k: topK, opts: []plsh.SearchOption{plsh.WithK(topK)}}
		},
		writer: "paced",
	},
	{
		name:  "fleet_routed_batch",
		fresh: func(sizes, float64) int { return 0 },
		open: func(ctx context.Context, e *env) (*system, error) {
			// The routing hyperplanes derive from the fleet's geometry:
			// plsh-node's own defaults (K=16, M=16, seed 1) restated.
			return openFleet(ctx, e, 0, plsh.WithPartitioned(plsh.Config{Dim: vocabSize, Radius: radius, RoutingRecall: 0.9}))
		},
		load: func(sz sizes) searchLoad {
			return searchLoad{clients: nproc(), batch: sz.searchBatch, k: topK, opts: []plsh.SearchOption{plsh.WithK(topK)}}
		},
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func openStore(ctx context.Context, e *env, dir string, cfg plsh.Config) (*system, error) {
	t0 := time.Now()
	st, err := plsh.Open(ctx, dir, cfg)
	if err != nil {
		return nil, err
	}
	return &system{e: e, idx: st, store: st, cfg: cfg, dir: dir, openTime: time.Since(t0)}, nil
}

// fleetNodes is the size of both fleets: 2 groups × 2 replicas, or 4 × 1.
const fleetNodes = 4

// errNoToolchain is reported (and turned into a test skip) when the fleet
// workloads cannot build cmd/plsh-node.
var errNoToolchain = errors.New("go toolchain unavailable to build plsh-node")

// openFleet spawns the plsh-node processes (durable, no fsync) and dials a
// coordinator over them. Building the node binary is excluded from the
// timed part, as set-up time is the system's, not the compiler's.
func openFleet(ctx context.Context, e *env, windowM int, opt plsh.DialOption) (*system, error) {
	if _, err := clustertest.BuildNodeBinary(); err != nil {
		if _, lerr := exec.LookPath("go"); lerr != nil {
			return nil, fmt.Errorf("%w: %v", errNoToolchain, err)
		}
		return nil, err
	}
	// clustertest reserves a node's port by listening on port 0 and closing
	// the listener, so two nodes can be handed the same port (the second
	// then never binds, and its readiness probe is answered by the first:
	// a group whose two replicas are one process), or another socket can
	// take a port before its node does. Either is an accident of the spawn,
	// not of the system: spawn again, and time only the spawn that is used.
	var (
		fleet *clustertest.Fleet
		dir   string
		t0    time.Time
	)
	for attempt := 1; ; attempt++ {
		var err error
		if dir, err = e.newDir("fleet"); err != nil {
			return nil, err
		}
		t0 = time.Now()
		fleet, err = clustertest.Spawn(fleetNodes, dir, "-dim", strconv.Itoa(vocabSize))
		if err == nil {
			if addrs := slices.Sorted(slices.Values(fleet.Addrs())); len(slices.Compact(addrs)) == fleetNodes {
				break
			}
			fleet.KillAll()
			err = errors.New("two nodes were handed one port")
		}
		if attempt == 3 {
			return nil, fmt.Errorf("spawn fleet: %w", err)
		}
		fmt.Printf("# spawn fleet, attempt %d: %v; spawning again\n", attempt, err)
	}
	e.trackFleet(fleet, true)
	sys := &system{e: e, fleet: fleet, dir: dir}
	cl, err := plsh.DialCluster(ctx, fleet.Addrs(), windowM, opt)
	if err != nil {
		sys.close(ctx)
		return nil, err
	}
	sys.idx, sys.cluster, sys.openTime = cl, cl, time.Since(t0)
	return sys, nil
}

// preloadStats is what one set-up measured.
type preloadStats struct {
	setup     time.Duration // open/spawn + inserts + Merge + Flush
	insertLat []int64       // per-batch Insert latency, ns
	inserting time.Duration // Σ insertLat
}

// preload brings a freshly opened system to query-ready: the base set in
// preloadBatch-document batches, then Merge and Flush. m, when non-nil,
// records the acknowledgements (only the set-up that is kept needs one).
func preload(ctx context.Context, sys *system, in *inputs, m *mirror) (preloadStats, error) {
	ps := preloadStats{setup: sys.openTime}
	base := in.base()
	for lo := 0; lo < len(base); lo += in.sz.preloadBatch {
		hi := min(lo+in.sz.preloadBatch, len(base))
		t0 := time.Now()
		ids, err := sys.idx.Insert(ctx, base[lo:hi])
		d := time.Since(t0)
		if err != nil {
			return ps, fmt.Errorf("preload insert: %w", err)
		}
		ps.insertLat = append(ps.insertLat, int64(d))
		ps.inserting += d
		if m != nil {
			m.countOp(nil, "insert")
			m.acknowledge(lo, ids)
		}
	}
	t0 := time.Now()
	if err := sys.idx.Merge(ctx); err != nil {
		return ps, fmt.Errorf("preload merge: %w", err)
	}
	if err := sys.idx.Flush(ctx); err != nil {
		return ps, fmt.Errorf("preload flush: %w", err)
	}
	ps.setup += ps.inserting + time.Since(t0)
	return ps, nil
}

func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// counters is the passive per-layer state read around a window.
type counters struct {
	merges     int
	mergeNS    int64
	insertNS   int64
	walP99NS   int64
	docs       int64 // rows held, summed over nodes (mirrors count twice)
	memBytes   int64
	failovers  uint64
	groupFails uint64
	selfCPU    time.Duration
	nodeCPU    time.Duration
	gcPauseNS  uint64
}

func readCounters(ctx context.Context, sys *system) (counters, error) {
	var c counters
	stats, err := sys.idx.Stats(ctx)
	if err != nil {
		return c, fmt.Errorf("stats: %w", err)
	}
	for _, st := range stats {
		c.merges += st.Merges
		c.mergeNS += st.TotalMergeNS
		c.insertNS += st.InsertNS
		c.walP99NS = max(c.walP99NS, st.WALAppendP99NS)
		c.docs += int64(st.StaticLen + st.DeltaLen)
		c.memBytes += st.MemoryBytes
		if st.PersistErr != "" {
			return c, fmt.Errorf("node persistence error: %s", st.PersistErr)
		}
	}
	if sys.cluster != nil {
		cs := sys.cluster.CoordStats()
		c.failovers, c.groupFails = cs.Failovers, cs.GroupFailures
		c.nodeCPU = childCPU("plsh-node")
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return c, err
	}
	c.selfCPU = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.gcPauseNS = ms.PauseTotalNs
	return c, nil
}

// setUps is what a run's repeated set-up left: the system and mirror the
// window runs against, and every set-up's readings.
type setUps struct {
	sys       *system
	m         *mirror
	seconds   []float64 // each set-up's time to query-ready
	insertLat []int64   // every set-up's per-batch Insert latencies, ns
	heapBase  uint64    // HeapAlloc before the kept system was opened
}

// setUp opens and preloads the system sz.setups times (once under
// --trace 1), closing all but the last. setup_s is the median; the insert
// readings of the read-only workloads pool every set-up's batches. The
// mirror exists before the heap baseline is read, so the footprint counts
// the index alone.
func setUp(ctx context.Context, e *env, def *workloadDef, in *inputs) (*setUps, error) {
	n := e.sz.setups
	if e.layers {
		n = 1
	}
	su := &setUps{}
	for i := 0; i < n; i++ {
		last := i == n-1
		if last {
			su.m = newMirror(in.docs, fleetNodes)
			su.heapBase = heapAlloc()
		}
		s, err := def.open(ctx, e)
		if err != nil {
			return nil, fmt.Errorf("open: %w", err)
		}
		ps, err := preload(ctx, s, in, su.m) // the mirror is nil until the set-up that is kept
		if err != nil {
			s.close(ctx)
			return nil, err
		}
		su.seconds = append(su.seconds, ps.setup.Seconds())
		su.insertLat = append(su.insertLat, ps.insertLat...)
		if last {
			su.sys = s
		} else {
			s.close(ctx)
		}
	}
	return su, nil
}

// runWorkload measures one workload: repeated set-up, stream_ingest's
// restart, the window, the quiescent audit and the footprint.
func runWorkload(ctx context.Context, e *env, def *workloadDef) (*report, error) {
	rep := newReport(def.name)
	sz := e.sz
	// Where the run's wall time went, printed at the end: the contract caps
	// the time of all runs together, and this is what to read when sizing
	// the window against it.
	clock := time.Now()
	var phases []string
	lap := func(name string) {
		phases = append(phases, fmt.Sprintf("%s=%.1fs", name, time.Since(clock).Seconds()))
		clock = time.Now()
	}
	in := makeInputs(e.seed, sz, def.fresh(sz, e.seconds))
	lap("inputs")
	load := def.load(sz)

	su, err := setUp(ctx, e, def, in)
	if err != nil {
		return nil, err
	}
	sys, m := su.sys, su.m
	defer sys.close(ctx)
	lap("set-ups")

	// stream_ingest's fixed-work restart runs before the window: the
	// re-opened store is the one the stream then hits.
	recoverS := 0.0 // a live per-layer reading: 0 where the workload never restarts
	next := sz.n0
	if def.writer == "stream" {
		if recoverS, next, err = recoverStream(ctx, sys, in, m); err != nil {
			return nil, err
		}
	}

	if def.writer == "stream" {
		lap("restart")
	}
	before, err := readCounters(ctx, sys)
	if err != nil {
		return nil, err
	}
	win := newWindow(e.seconds)
	var (
		searches *sliced
		inserts  insertSamples
		wg       sync.WaitGroup
	)
	var paced *pacedWriter
	switch def.writer {
	case "stream":
		wg.Add(1)
		go func() {
			defer wg.Done()
			inserts = streamWriter(ctx, sys.idx, m, in, next, load.recent, win)
		}()
	case "paced":
		paced = &pacedWriter{ctx: ctx, idx: sys.idx, m: m, in: in, win: win, next: next}
		load.between = paced.sendDue
	}
	searches = runSearchers(ctx, sys.idx, m, in, load, win)
	wg.Wait()
	if paced != nil {
		inserts = paced.finish()
	}
	lap("window")
	after, err := readCounters(ctx, sys)
	if err != nil {
		return nil, err
	}
	// Validity of the window itself.
	if n := searches.count(); n < sz.minCalls {
		return nil, fmt.Errorf("only %d search calls in the window, want %d", n, sz.minCalls)
	}
	if inserts.ranDry {
		return nil, errors.New("the writer ran out of fresh documents; enlarge the corpus")
	}
	merges := after.merges - before.merges
	if def.writer == "stream" && merges < sz.minMerges {
		return nil, fmt.Errorf("%d background merges in the window, want at least %d: the window is too short for stream_ingest", merges, sz.minMerges)
	}
	if inserts.growing {
		return nil, errors.New("the open-loop writer's backlog was still growing at the window's end: the fleet does not sustain the paced rate")
	}
	for i := 0; i < inserts.unacked; i++ {
		m.countOp(errors.New("due a second before the window's end, unacknowledged at it"), "open-loop insert")
	}

	// What the window's samples say. The gated timings are medians over
	// the window's slices (see windowSlices) ...
	rep.emit("setup_s", median(su.seconds))
	rep.note("setup_s", "median of %d set-ups", len(su.seconds))
	rep.emitSliced("search_p50_us", searches, 1e3)
	var insLat []int64 // every timed insert batch, ascending: the ungated tail's sample
	switch def.writer {
	case "":
		// A read-only window has no inserts of its own, and the result
		// object must carry every end-to-end metric on every workload: the
		// reading is the set-up's, the only inserts the workload makes —
		// the base set over the time it took to make it searchable. (The
		// time inside the Insert calls alone, a third to a half of it,
		// spread 9 to 14 % over ten runs where the whole set-up spreads 3.)
		insLat = su.insertLat
		slices.Sort(insLat)
		rep.emit("insert_docs_per_s", float64(sz.n0)/median(su.seconds))
		rep.note("insert_docs_per_s", "set-up: %d documents / setup_s", sz.n0)
		rep.emitQuantile("plsh.insert_p50_ms", insLat, 0.5, 1e6)
	default:
		batch := sz.streamBatch
		if def.writer == "paced" {
			batch = sz.paceBatch
		}
		insLat = inserts.sorted()
		rep.emit("insert_docs_per_s", inserts.rate(batch))
		rep.note("insert_docs_per_s", "median of %d slices, %d batches of %d", windowSlices, len(insLat), batch)
		rep.emitSliced("plsh.insert_p50_ms", &inserts.sliced, 1e6)
	}
	if len(insLat) < 20 {
		return nil, fmt.Errorf("only %d insert batches were timed", len(insLat))
	}

	// ... and the live per-layer metrics: whole-window throughput and
	// tails, and passive counters read around the window.
	searchLat := searches.sorted()
	queries := float64(max(len(searchLat)*load.batch, 1))
	rep.emit("plsh.search_qps", searches.rate(load.batch))
	rep.note("plsh.search_qps", "median of %d slices, %.0f queries", windowSlices, queries)
	rep.emit("node.merges", float64(merges))
	rep.emit("node.merge_busy_ms", float64(after.mergeNS-before.mergeNS)/1e6)
	rep.emit("node.insert_busy_ms", float64(after.insertNS-before.insertNS)/1e6)
	rep.emit("node.wal_append_p99_us", float64(after.walP99NS)/1e3)
	rep.emit("cluster.failovers", float64(after.failovers-before.failovers))
	rep.emit("cluster.group_failures", float64(after.groupFails-before.groupFails))
	// Named for the percentile they report at full scale; emitQuantile
	// falls back where the window holds too few samples for it.
	rep.emitQuantile("plsh.search_p95_us", searchLat, 0.95, 1e3)
	rep.emitQuantile("plsh.search_p99_us", searchLat, 0.99, 1e3)
	rep.emitQuantile("plsh.search_p999_us", searchLat, 0.999, 1e3)
	rep.emitQuantile("plsh.insert_p99_ms", insLat, 0.99, 1e6)
	rep.emit("plsh.recover_s", recoverS)
	rep.emit("proc.coord_cpu_us_per_query", float64((after.selfCPU-before.selfCPU).Microseconds())/queries)
	rep.emit("proc.node_cpu_us_per_query", float64((after.nodeCPU-before.nodeCPU).Microseconds())/queries)
	rep.emit("proc.gc_pause_ms", float64(after.gcPauseNS-before.gcPauseNS)/1e6)
	if def.writer == "paced" {
		rep.emitQuantile("gen.lag_p99_ms", inserts.lag, 0.99, 1e6)
	} else {
		rep.emit("gen.lag_p99_ms", 0)
	}

	// How far the closed-loop writer got is the window's throughput. The
	// rest of the stream goes in untimed, so that the audit and the
	// footprint below are taken over the same documents on every run:
	// recall and bytes per document otherwise follow insert_docs_per_s.
	if def.writer == "stream" {
		for lo := inserts.next; lo < len(in.docs); lo += sz.preloadBatch {
			ids, err := sys.idx.Insert(ctx, in.docs[lo:min(lo+sz.preloadBatch, len(in.docs))])
			m.countOp(err, "insert")
			if err != nil {
				return nil, fmt.Errorf("top-up insert: %w", err)
			}
			m.acknowledge(lo, ids)
		}
	}

	// The sample buffers grew during the window, after the heap baseline:
	// dropped here, or a faster search would read as a larger index.
	searches, searchLat, inserts, insLat, su.insertLat = nil, nil, insertSamples{}, nil, nil

	// Quiesce, then audit.
	if err := sys.idx.Flush(ctx); err != nil {
		return nil, fmt.Errorf("flush: %w", err)
	}
	recall, err := recallAudit(ctx, sys.idx, m, in, load.k, load.opts)
	if err != nil {
		return nil, fmt.Errorf("recall audit: %w", err)
	}
	if math.IsNaN(recall) {
		return nil, errors.New("recall audit: no sampled query has an in-radius neighbour")
	}
	rep.emit("recall", recall)
	rep.note("recall", "%d queries", min(sz.recallQueries, sz.n0))

	// Footprint: heap growth since before the index was opened (in
	// process), or what the nodes report holding (fleets), per document.
	if sys.store != nil {
		// Merged first: the same documents weigh differently as delta
		// segments and as static tables, and where the window happened to
		// stop must not decide the reading.
		if err := sys.idx.Merge(ctx); err != nil {
			return nil, fmt.Errorf("merge: %w", err)
		}
		rep.emit("mem_bytes_per_doc", (float64(heapAlloc())-float64(su.heapBase))/float64(m.liveDocs()))
		if got, want := int64(sys.store.Len()), m.rows.Load(); got != want {
			m.fail("store holds %d documents, %d were acknowledged", got, want)
		}
	} else {
		quiet, err := readCounters(ctx, sys)
		if err != nil {
			return nil, err
		}
		rep.emit("mem_bytes_per_doc", float64(quiet.memBytes)/float64(quiet.docs))
		rep.note("mem_bytes_per_doc", "nodes' Stats.MemoryBytes / rows held")
		if got, want := quiet.docs, m.rows.Load()*int64(sys.cluster.Replicas()); got != want {
			m.fail("fleet holds %d rows, %d were acknowledged", got, want)
		}
	}

	lap("audit")
	fmt.Printf("# %s: wall time %s\n", def.name, strings.Join(phases, " "))
	rep.attempted, rep.failed = m.attempted.Load(), m.failed.Load()
	if m.first != "" {
		fmt.Printf("# %s: first failed operation: %s\n", def.name, m.first)
	}
	return rep, nil
}

// recoverStream is stream_ingest's fixed-work restart: with the base set
// checkpointed, journal recoverDocs more (below the merge trigger), close,
// and time plsh.Open until Len is right — recoverOpens times, keeping the
// last store open for the window. It returns the median and the next
// unused corpus row.
func recoverStream(ctx context.Context, sys *system, in *inputs, m *mirror) (float64, int, error) {
	sz := in.sz
	next := sz.n0
	// The checkpoint at N0, made explicit. Merge and Flush can return while
	// the checkpoint of a chained background merge is still being written
	// (they wait for the merge they found in flight, not for the one it
	// chained), and Close does not wait for it either: re-opening then
	// races the old store's snapshot rename and journal truncation. Save
	// checkpoints synchronously, behind any checkpoint still in progress.
	if err := sys.store.Save(ctx); err != nil {
		return 0, 0, fmt.Errorf("recover: checkpoint: %w", err)
	}
	for end := next + sz.recoverDocs; next < end; next += sz.streamBatch {
		ids, err := sys.idx.Insert(ctx, in.docs[next:next+sz.streamBatch])
		m.countOp(err, "insert")
		if err != nil {
			return 0, 0, fmt.Errorf("recover: journal insert: %w", err)
		}
		m.acknowledge(next, ids)
	}
	want := sys.store.Len()
	var secs []float64
	for i := 0; i < sz.recoverOpens; i++ {
		if err := sys.store.Close(); err != nil {
			return 0, 0, fmt.Errorf("recover: close: %w", err)
		}
		t0 := time.Now()
		st, err := plsh.Open(ctx, sys.dir, sys.cfg)
		if err != nil {
			return 0, 0, fmt.Errorf("recover: re-open: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		sys.idx, sys.store = st, st
		m.attempted.Add(1)
		if got := st.Len(); got != want {
			m.fail("recovered store holds %d documents, %d were acknowledged", got, want)
		}
	}
	return median(secs), next, nil
}
