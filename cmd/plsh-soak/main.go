// Command plsh-soak drives a real replicated, partitioned PLSH cluster —
// genuine plsh-node processes over TCP, spawned through the same
// internal/clustertest harness as the fault-injection suite — with
// sustained mixed load (concurrent inserts, searches, deletes, and
// periodic merges) while injecting faults: SIGKILL/restart cycles and
// SIGSTOP/SIGCONT stalls on randomly chosen replicas. It is the
// answer to "does the cluster hold its latency and correctness story
// under minutes of churn", not microseconds of benchmark.
//
// Throughout the run a client-side mirror of every acknowledged write is
// the oracle: sampled search answers are checked for soundness (every
// returned match really is within the query radius, recomputed from the
// mirror), self-retrieval (an acknowledged document must find itself by
// global ID — never by distance, which float32 normalization makes
// treacherous), and aggregate recall against the exhaustive in-radius
// set. Latencies are recorded per operation in lock-free log-scale
// histograms (internal/histo) and checked against SLOs at exit:
//
//	plsh-soak -duration 60s -groups 2 -replicas 3 \
//	    -slo-search-p99 250ms -max-error-rate 0.01 -report soak.json
//
// Exit status: 0 when every SLO and consistency check held, 1 on an SLO
// or correctness violation, 2 on a harness failure (could not spawn or
// restart the fleet, etc.).
//
// Fault model and the write gate: searches run completely ungated
// through every kill and stall — masking replica loss is the read
// path's whole job, and the report requires the injected faults to have
// actually exercised it (failovers > 0 after kills, hedge wins > 0
// after stalls). Writes, however, are quiesced around SIGKILL windows:
// group-mirrored inserts are not atomic under member loss — a batch
// accepted by two replicas while the third is down diverges the mirrors
// permanently (the survivors assign local IDs the victim never will) —
// so the harness drains in-flight writes before each kill and resumes
// them after the victim rejoins. SIGSTOP stalls need no gate: a stalled
// member journals the write after SIGCONT, so writes just block briefly.
// Write atomicity under member loss (undo or anti-entropy repair) is an
// open roadmap item; until it lands, coordinated chaos is the honest
// soak.
//
// The run ends with a JSON report (CoordStats, per-node server counters,
// WAL fsync quantiles, client latency quantiles, recall) and a human
// summary on stdout.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"plsh"
	"plsh/internal/clustertest"
	"plsh/internal/histo"
	"plsh/internal/sparse"
)

func main() {
	os.Exit(run())
}

// config is the parsed flag set, echoed into the JSON report.
type config struct {
	Duration      time.Duration `json:"duration"`
	Groups        int           `json:"groups"`
	Replicas      int           `json:"replicas"`
	Dim           int           `json:"dim"`
	K             int           `json:"k"`
	M             int           `json:"m"`
	Seed          uint64        `json:"seed"`
	Capacity      int           `json:"capacity"`
	Radius        float64       `json:"radius"`
	RoutingRecall float64       `json:"routing_recall"`
	Scatter       bool          `json:"scatter"`
	Fsync         bool          `json:"fsync"`
	InsertRate    int           `json:"insert_rate"`
	Searchers     int           `json:"searchers"`
	QueryBatch    int           `json:"query_batch"`
	DeleteEvery   time.Duration `json:"delete_every"`
	MergeEvery    time.Duration `json:"merge_every"`
	KillEvery     time.Duration `json:"kill_every"`
	Downtime      time.Duration `json:"downtime"`
	StallFor      time.Duration `json:"stall_for"`
	Hedge         time.Duration `json:"hedge"`
	NodeTimeout   time.Duration `json:"node_timeout"`
	SampleEvery   int           `json:"sample_every"`
	SLOSearchP99  time.Duration `json:"slo_search_p99"`
	MaxErrorRate  float64       `json:"max_error_rate"`
	MinRecall     float64       `json:"min_recall"`
}

// report is the machine-readable outcome written by -report and
// summarized on stdout.
type report struct {
	Config     config    `json:"config"`
	StartedAt  time.Time `json:"started_at"`
	WallSec    float64   `json:"wall_sec"`
	Kills      int       `json:"kills"`
	Stalls     int       `json:"stalls"`
	Inserted   uint64    `json:"inserted_docs"`
	Deleted    uint64    `json:"deleted_docs"`
	Searches   uint64    `json:"search_batches"`
	Queries    uint64    `json:"queries"`
	Merges     uint64    `json:"merges_ok"`
	MergeSkips uint64    `json:"merges_skipped"`

	SearchP50NS  int64 `json:"search_p50_ns"`
	SearchP99NS  int64 `json:"search_p99_ns"`
	SearchP999NS int64 `json:"search_p999_ns"`
	InsertP50NS  int64 `json:"insert_p50_ns"`
	InsertP99NS  int64 `json:"insert_p99_ns"`
	DeleteP50NS  int64 `json:"delete_p50_ns"`
	DeleteP99NS  int64 `json:"delete_p99_ns"`

	SearchErrors uint64  `json:"search_errors"`
	WriteErrors  uint64  `json:"write_errors"`
	Violations   uint64  `json:"violations"`
	ErrorRate    float64 `json:"error_rate"`

	Samples     uint64  `json:"verified_samples"`
	Recall      float64 `json:"recall"`
	RecallNoise uint64  `json:"recall_samples_skipped"`

	Coord plsh.CoordStats `json:"coord"`
	// Server-side totals summed over the fleet's final Stats broadcast.
	NodeSearches  uint64 `json:"node_searches_served"`
	NodeInserts   uint64 `json:"node_inserts_served"`
	NodeDeletes   uint64 `json:"node_deletes_served"`
	NodeMerges    int    `json:"node_merges"`
	WALFsyncP99NS int64  `json:"wal_fsync_p99_ns"`

	SLOFailures []string `json:"slo_failures"`
}

// soak owns the run: fleet, coordinator, oracle mirror, histograms, and
// counters. All counter fields are atomics; the mirror has its own lock.
type soak struct {
	cfg   config
	fleet *clustertest.Fleet
	cl    *plsh.Cluster
	docs  []plsh.Vector // pregenerated corpus, consumed in order by the inserter

	// writeGate quiesces inserts and deletes around SIGKILL windows (see
	// the package comment); writers hold RLock per operation, the chaos
	// goroutine holds Lock across kill→downtime→restart.
	writeGate sync.RWMutex

	mirror *mirror

	searchHist, insertHist, deleteHist histo.Histogram

	inserted, deleted, searches, queries atomic.Uint64
	merges, mergeSkips                   atomic.Uint64
	searchErrors, writeErrors            atomic.Uint64
	violations, samples                  atomic.Uint64
	recallHits, recallWant, recallSkips  atomic.Uint64
	kills, stalls                        atomic.Uint64
	full                                 atomic.Bool // capacity reached; ingest stopped
}

// mirror is the client-side oracle: every acknowledged live document,
// plus tombstones for acknowledged deletes (a match on a recently
// deleted ID is delete-lag, not corruption), and a count of the inserts
// begun and of those mirrored. An insert the members have applied is
// searchable before its call returns and the inserter mirrors it, so a
// match the mirror does not know may be one in flight: a search takes a
// fence (the inserts begun so far) once it has its answer — every insert
// in flight while it ran began before that — and an unknown match is
// judged again once every insert behind that fence is mirrored
// (awaitMirrored).
type mirror struct {
	mu      sync.Mutex
	vecs    map[uint64]plsh.Vector
	ids     []uint64 // live IDs for O(1) random pick (swap-remove on delete)
	pos     map[uint64]int
	deleted map[uint64]bool

	begun, mirrored uint64    // inserts started, and finished and mirrored, in order
	waiting         int       // callers blocked in awaitMirrored
	done            sync.Cond // signalled as inserts finish; L is &mu
}

func newMirror() *mirror {
	m := &mirror{
		vecs:    make(map[uint64]plsh.Vector),
		pos:     make(map[uint64]int),
		deleted: make(map[uint64]bool),
	}
	m.done.L = &m.mu
	return m
}

// beginInsert counts an insert in flight; the one inserter calls it before
// each Insert and endInsert once the batch's outcome is mirrored, so the
// inserts finish in the order they began.
func (m *mirror) beginInsert() {
	m.mu.Lock()
	m.begun++
	m.mu.Unlock()
}

// endInsert marks the oldest insert in flight mirrored.
func (m *mirror) endInsert() {
	m.mu.Lock()
	m.mirrored++
	m.mu.Unlock()
	m.done.Broadcast()
}

// fence returns the inserts begun so far: a search answered by now can
// have seen nothing written by a later one.
func (m *mirror) fence() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.begun
}

// awaitMirrored blocks until the first fence inserts are mirrored. It
// waits on the inserter alone, which ends every insert it begins.
func (m *mirror) awaitMirrored(fence uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.waiting++
	for m.mirrored < fence {
		m.done.Wait()
	}
	m.waiting--
}

func (m *mirror) add(id uint64, v plsh.Vector) {
	m.mu.Lock()
	m.vecs[id] = v
	m.pos[id] = len(m.ids)
	m.ids = append(m.ids, id)
	m.mu.Unlock()
}

// pick returns a uniformly random live document, or ok=false when the
// mirror is empty.
func (m *mirror) pick(rng *rand.Rand) (id uint64, v plsh.Vector, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.ids) == 0 {
		return 0, plsh.Vector{}, false
	}
	id = m.ids[rng.Intn(len(m.ids))]
	return id, m.vecs[id], true
}

// remove tombstones an acknowledged delete.
func (m *mirror) remove(id uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	i, ok := m.pos[id]
	if !ok {
		return
	}
	last := len(m.ids) - 1
	m.ids[i] = m.ids[last]
	m.pos[m.ids[i]] = i
	m.ids = m.ids[:last]
	delete(m.pos, id)
	delete(m.vecs, id)
	m.deleted[id] = true
}

// classify says what the mirror knows about an ID: live (with its
// vector), tombstoned, or never acknowledged.
func (m *mirror) classify(id uint64) (v plsh.Vector, live, tomb bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if v, ok := m.vecs[id]; ok {
		return v, true, false
	}
	return plsh.Vector{}, false, m.deleted[id]
}

// snapshot copies the live set for an exhaustive oracle scan.
func (m *mirror) snapshot() map[uint64]plsh.Vector {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[uint64]plsh.Vector, len(m.vecs))
	for id, v := range m.vecs {
		out[id] = v
	}
	return out
}

func run() int {
	var cfg config
	flag.DurationVar(&cfg.Duration, "duration", 60*time.Second, "how long to sustain the mixed load")
	flag.IntVar(&cfg.Groups, "groups", 2, "replica groups")
	flag.IntVar(&cfg.Replicas, "replicas", 3, "replicas per group")
	flag.IntVar(&cfg.Dim, "dim", 2000, "vector-space dimensionality")
	flag.IntVar(&cfg.K, "k", 4, "bits per hash table")
	flag.IntVar(&cfg.M, "m", 16, "half-width hash functions")
	flag.Uint64Var(&cfg.Seed, "seed", 42, "hash-family and corpus seed")
	flag.IntVar(&cfg.Capacity, "capacity", 20000, "per-node document capacity")
	flag.Float64Var(&cfg.Radius, "radius", 0.6, "query radius in radians (also the oracle's)")
	flag.Float64Var(&cfg.RoutingRecall, "routing-recall", 0.9, "partitioned routing recall target")
	flag.BoolVar(&cfg.Scatter, "scatter", false, "scatter placement instead of partitioned routing")
	flag.BoolVar(&cfg.Fsync, "fsync", true, "fsync every journal append on the nodes")
	flag.IntVar(&cfg.InsertRate, "insert-rate", 250, "sustained insert rate, documents/second")
	flag.IntVar(&cfg.Searchers, "searchers", 4, "concurrent search workers")
	flag.IntVar(&cfg.QueryBatch, "query-batch", 4, "queries per SearchBatch call")
	flag.DurationVar(&cfg.DeleteEvery, "delete-every", 250*time.Millisecond, "interval between single-document deletes")
	flag.DurationVar(&cfg.MergeEvery, "merge-every", 10*time.Second, "interval between cluster-wide merges")
	flag.DurationVar(&cfg.KillEvery, "kill-every", 15*time.Second, "interval between injected faults (0 disables chaos)")
	flag.DurationVar(&cfg.Downtime, "downtime", 2*time.Second, "how long a SIGKILLed replica stays down")
	flag.DurationVar(&cfg.StallFor, "stall-for", 300*time.Millisecond, "how long a SIGSTOPped replica stays frozen")
	flag.DurationVar(&cfg.Hedge, "hedge", time.Millisecond, "search hedge delay (0 disables hedging)")
	flag.DurationVar(&cfg.NodeTimeout, "node-timeout", 500*time.Millisecond, "per-replica search attempt timeout")
	flag.IntVar(&cfg.SampleEvery, "sample-every", 32, "verify every Nth search batch against the oracle")
	flag.DurationVar(&cfg.SLOSearchP99, "slo-search-p99", 250*time.Millisecond, "search p99 latency SLO")
	flag.Float64Var(&cfg.MaxErrorRate, "max-error-rate", 0.01, "failed ops + violations over total ops SLO")
	flag.Float64Var(&cfg.MinRecall, "min-recall", 0.60, "aggregate sampled recall floor")
	reportPath := flag.String("report", "", "write the JSON report here ('' = stdout summary only)")
	dataRoot := flag.String("data", "", "fleet data root (default: a fresh temp directory)")
	flag.Parse()

	if *dataRoot == "" {
		dir, err := os.MkdirTemp("", "plsh-soak-")
		if err != nil {
			fmt.Fprintf(os.Stderr, "plsh-soak: %v\n", err)
			return 2
		}
		defer os.RemoveAll(dir)
		*dataRoot = dir
	}

	s := &soak{cfg: cfg, mirror: newMirror()}

	// Size the corpus to the run: everything the inserter could possibly
	// push, bounded by what the fleet can hold (partitioned placement
	// never retires, so leave hash-imbalance headroom).
	want := int(float64(cfg.InsertRate)*cfg.Duration.Seconds()*1.2) + 512
	limit := cfg.Groups * cfg.Capacity * 3 / 4
	if want > limit {
		want = limit
	}
	fmt.Fprintf(os.Stderr, "plsh-soak: generating %d-document corpus (dim=%d)\n", want, cfg.Dim)
	s.docs = plsh.SyntheticTweets(want, cfg.Dim, cfg.Seed+1)

	fmt.Fprintf(os.Stderr, "plsh-soak: spawning %d×%d fleet under %s\n", cfg.Groups, cfg.Replicas, *dataRoot)
	nodeArgs := []string{
		"-dim", fmt.Sprint(cfg.Dim), "-k", fmt.Sprint(cfg.K), "-m", fmt.Sprint(cfg.M),
		"-seed", fmt.Sprint(cfg.Seed), "-capacity", fmt.Sprint(cfg.Capacity),
		"-r", fmt.Sprint(cfg.Radius),
	}
	if cfg.Fsync {
		nodeArgs = append(nodeArgs, "-fsync")
	}
	fleet, err := clustertest.Spawn(cfg.Groups*cfg.Replicas, *dataRoot, nodeArgs...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "plsh-soak: spawn fleet: %v\n", err)
		return 2
	}
	defer fleet.KillAll()
	s.fleet = fleet

	bg := context.Background()
	dopts := []plsh.DialOption{plsh.WithReplicas(cfg.Replicas)}
	windowM := cfg.Groups
	if !cfg.Scatter {
		windowM = 0
		dopts = append(dopts, plsh.WithPartitioned(plsh.Config{
			Dim: cfg.Dim, K: cfg.K, M: cfg.M, Seed: cfg.Seed,
			RoutingRecall: cfg.RoutingRecall,
		}))
	}
	cl, err := plsh.DialCluster(bg, fleet.Addrs(), windowM, dopts...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "plsh-soak: dial cluster: %v\n", err)
		return 2
	}
	defer cl.Close()
	s.cl = cl

	started := time.Now()
	ctx, cancel := context.WithTimeout(bg, cfg.Duration)
	defer cancel()

	harnessErr := make(chan error, 1)
	var wg sync.WaitGroup
	start := func(f func()) { wg.Add(1); go func() { defer wg.Done(); f() }() }

	start(func() { s.insertLoop(ctx) })
	start(func() { s.deleteLoop(ctx) })
	start(func() { s.mergeLoop(ctx) })
	for i := 0; i < cfg.Searchers; i++ {
		seed := int64(cfg.Seed) + int64(i)*7919
		start(func() { s.searchLoop(ctx, seed) })
	}
	if cfg.KillEvery > 0 {
		start(func() { s.chaosLoop(ctx, harnessErr) })
	}
	wg.Wait()

	select {
	case err := <-harnessErr:
		fmt.Fprintf(os.Stderr, "plsh-soak: harness: %v\n", err)
		return 2
	default:
	}

	// Quiesce: every node back up, then a final verification pass and the
	// server-side stats sweep over the whole fleet.
	for _, nd := range fleet.Nodes {
		if !nd.Running() {
			if err := nd.Start(); err != nil {
				fmt.Fprintf(os.Stderr, "plsh-soak: final restart: %v\n", err)
				return 2
			}
		}
	}
	fctx, fcancel := context.WithTimeout(bg, 30*time.Second)
	defer fcancel()
	s.finalAudit(fctx)

	rep := s.buildReport(fctx, started)
	printSummary(rep)
	if *reportPath != "" {
		if err := writeReport(*reportPath, rep); err != nil {
			fmt.Fprintf(os.Stderr, "plsh-soak: write report: %v\n", err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "plsh-soak: report written to %s\n", *reportPath)
	}
	if len(rep.SLOFailures) > 0 {
		for _, f := range rep.SLOFailures {
			fmt.Fprintf(os.Stderr, "plsh-soak: SLO VIOLATION: %s\n", f)
		}
		return 1
	}
	fmt.Fprintln(os.Stderr, "plsh-soak: all SLOs held")
	return 0
}

// searchOpts is the per-batch option set every search uses.
func (s *soak) searchOpts() []plsh.SearchOption {
	opts := []plsh.SearchOption{plsh.WithNodeTimeout(s.cfg.NodeTimeout), plsh.WithK(256)}
	if s.cfg.Hedge > 0 {
		opts = append(opts, plsh.WithHedge(s.cfg.Hedge))
	}
	return opts
}

// insertLoop streams the corpus at -insert-rate in small batches,
// mirroring every acknowledged document. A batch that fails leaves its
// unplaced documents dropped forever — retrying a batch that some
// replicas may already hold would duplicate it — so drops are counted
// as write errors (the write gate makes them rare).
func (s *soak) insertLoop(ctx context.Context) {
	const batch = 8
	interval := time.Second * batch / time.Duration(max(1, s.cfg.InsertRate))
	tick := time.NewTicker(interval)
	defer tick.Stop()
	next := 0
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		if next+batch > len(s.docs) || s.full.Load() {
			return // corpus exhausted or fleet full: stop ingest, keep the rest of the mix running
		}
		docs := s.docs[next : next+batch]
		next += batch
		if !s.insertBatch(ctx, docs) {
			return
		}
	}
}

// insertBatch inserts docs and mirrors what the cluster acknowledged,
// counted in flight in the mirror from just before the call — past the
// write gate, so a batch held there is not — until its outcome is
// mirrored. It reports whether ingest goes on: not once the context ends.
func (s *soak) insertBatch(ctx context.Context, docs []plsh.Vector) bool {
	s.writeGate.RLock()
	s.mirror.beginInsert()
	defer s.mirror.endInsert()
	t0 := time.Now()
	ids, err := s.cl.Insert(ctx, docs)
	s.insertHist.Record(time.Since(t0))
	s.writeGate.RUnlock()

	switch {
	case err == nil:
		for i, id := range ids {
			s.mirror.add(id, docs[i])
		}
		s.inserted.Add(uint64(len(docs)))
	case errors.Is(err, plsh.ErrFull):
		s.full.Store(true)
		fmt.Fprintf(os.Stderr, "plsh-soak: fleet full after %d documents; ingest stopped\n", s.inserted.Load())
	default:
		var ie *plsh.InsertError
		dropped := len(docs)
		if errors.As(err, &ie) {
			for i, ok := range ie.Placed {
				if ok {
					s.mirror.add(ie.IDs[i], docs[i])
					s.inserted.Add(1)
					dropped--
				}
			}
		}
		if ctx.Err() != nil {
			return false // shutdown tore the call, not the cluster
		}
		s.writeErrors.Add(uint64(dropped))
		fmt.Fprintf(os.Stderr, "plsh-soak: insert dropped %d documents: %v\n", dropped, err)
	}
	return true
}

// deleteLoop tombstones one random live document per interval.
func (s *soak) deleteLoop(ctx context.Context) {
	rng := rand.New(rand.NewSource(int64(s.cfg.Seed) ^ 0x5eed))
	tick := time.NewTicker(s.cfg.DeleteEvery)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		id, _, ok := s.mirror.pick(rng)
		if !ok {
			continue
		}
		s.writeGate.RLock()
		t0 := time.Now()
		err := s.cl.Delete(ctx, id)
		s.deleteHist.Record(time.Since(t0))
		s.writeGate.RUnlock()
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			s.writeErrors.Add(1)
			fmt.Fprintf(os.Stderr, "plsh-soak: delete %d: %v\n", id, err)
			continue
		}
		s.mirror.remove(id)
		s.deleted.Add(1)
	}
}

// mergeLoop triggers cluster-wide merges; a merge that fails because a
// replica is down is skipped, not an error — the next round covers it.
func (s *soak) mergeLoop(ctx context.Context) {
	tick := time.NewTicker(s.cfg.MergeEvery)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		if err := s.cl.Merge(ctx); err != nil {
			s.mergeSkips.Add(1)
		} else {
			s.merges.Add(1)
		}
	}
}

// searchLoop self-queries random live documents continuously, recording
// batch latency and verifying every -sample-every'th batch against the
// mirror oracle.
func (s *soak) searchLoop(ctx context.Context, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	opts := s.searchOpts()
	n := 0
	for ctx.Err() == nil {
		ids := make([]uint64, 0, s.cfg.QueryBatch)
		qs := make([]plsh.Vector, 0, s.cfg.QueryBatch)
		for len(qs) < s.cfg.QueryBatch {
			id, v, ok := s.mirror.pick(rng)
			if !ok {
				break
			}
			ids = append(ids, id)
			qs = append(qs, v)
		}
		if len(qs) == 0 {
			time.Sleep(20 * time.Millisecond) // ingest has not primed the mirror yet
			continue
		}
		// Sampled batches snapshot the oracle before the search so recall
		// is judged against what the cluster had acknowledged by then.
		n++
		var oracle map[uint64]plsh.Vector
		if n%s.cfg.SampleEvery == 0 {
			oracle = s.mirror.snapshot()
		}

		t0 := time.Now()
		res, rep, err := s.cl.SearchBatch(ctx, qs, opts...)
		s.searchHist.Record(time.Since(t0))
		fence := s.mirror.fence()
		if err != nil || !rep.Complete() {
			if ctx.Err() != nil {
				return
			}
			s.searchErrors.Add(1)
			fmt.Fprintf(os.Stderr, "plsh-soak: search: err=%v complete=%v\n", err, err == nil && rep.Complete())
			continue
		}
		s.searches.Add(1)
		s.queries.Add(uint64(len(qs)))
		if oracle != nil {
			s.verifySample(ctx, ids[0], qs[0], res[0].Matches, oracle, fence)
		}
	}
}

// verifySample checks one answered query against the mirror: soundness
// of every returned match, self-retrieval by global ID, and recall
// against the exhaustive in-radius set over the pre-search snapshot.
// fence is the mirror's fence taken once the search had its answer.
func (s *soak) verifySample(ctx context.Context, qid uint64, q plsh.Vector, matches []plsh.Match, oracle map[uint64]plsh.Vector, fence uint64) {
	s.samples.Add(1)
	cosThr := sparse.CosThreshold(s.cfg.Radius)
	// Soundness: a match must be a live acknowledged document within the
	// radius (re-verified by recomputing the dot product), or a tombstone
	// the answer path has not caught up with yet, or a document
	// acknowledged after our snapshot (still fine — classify sees the
	// live mirror, not the snapshot). A match the mirror does not know may
	// be from an insert that was in flight while the search ran: it is
	// classified again once every such insert is mirrored, and is a
	// violation only if it is still unknown then.
	selfSeen := false
	for _, m := range matches {
		if m.ID == qid {
			selfSeen = true
		}
		v, live, tomb := s.mirror.classify(m.ID)
		if !live && !tomb {
			s.mirror.awaitMirrored(fence)
			v, live, tomb = s.mirror.classify(m.ID)
		}
		switch {
		case live:
			// Slack on the threshold: the nodes' float32 pipeline and this
			// float64 recomputation legitimately disagree in the last bits.
			if sparse.Dot(q, v) < cosThr-5e-3 {
				s.violations.Add(1)
				fmt.Fprintf(os.Stderr, "plsh-soak: VIOLATION: match %d is outside the query radius (dist %.4f > %v)\n",
					m.ID, sparse.AngularDistance(sparse.Dot(q, v)), s.cfg.Radius)
			}
		case tomb:
			// Delete lag; acceptable.
		default:
			s.violations.Add(1)
			fmt.Fprintf(os.Stderr, "plsh-soak: VIOLATION: match %d was never acknowledged to this client\n", m.ID)
		}
	}
	// Self-retrieval, by ID — never by distance: float32 normalization
	// puts a document's self-distance anywhere up to ~5e-4, so an ID test
	// is the only reliable one. One retry absorbs delete/search races.
	if !selfSeen {
		if _, live, _ := s.mirror.classify(qid); live {
			r, err := s.cl.Search(ctx, q, s.searchOpts()...)
			ok := false
			if err == nil {
				for _, m := range r.Matches {
					if m.ID == qid {
						ok = true
						break
					}
				}
			}
			if _, stillLive, _ := s.mirror.classify(qid); stillLive && !ok {
				s.violations.Add(1)
				fmt.Fprintf(os.Stderr, "plsh-soak: VIOLATION: document %d cannot find itself\n", qid)
			}
		}
	}
	// Recall over the snapshot's exhaustive in-radius set. Truncation
	// guard: WithK(256) bounds answers, so a pathological hub whose true
	// neighborhood approaches that bound is skipped rather than
	// miscounted.
	want := 0
	got := 0
	answered := make(map[uint64]bool, len(matches))
	for _, m := range matches {
		answered[m.ID] = true
	}
	for id, v := range oracle {
		if sparse.Dot(q, v) >= cosThr {
			want++
			if answered[id] {
				got++
			}
		}
	}
	if want > 128 {
		s.recallSkips.Add(1)
		return
	}
	if want > 0 {
		s.recallWant.Add(uint64(want))
		s.recallHits.Add(uint64(got))
	}
}

// chaosLoop alternates SIGKILL/restart cycles (exercising failover and
// journal recovery) with SIGSTOP/SIGCONT stalls (exercising the hedge:
// a frozen replica holds its sockets and answers nothing, so only the
// hedged second copy can win). Kills hold the write gate — see the
// package comment. Chaos stops early enough that the last victim is
// back and verified before the run ends.
func (s *soak) chaosLoop(ctx context.Context, harnessErr chan<- error) {
	rng := rand.New(rand.NewSource(int64(s.cfg.Seed) ^ 0xc4a05))
	deadline, _ := ctx.Deadline()
	kill := true // start with a kill; alternate with stalls
	for {
		select {
		case <-ctx.Done():
			return
		case <-time.After(s.cfg.KillEvery):
		}
		// Leave room to restart and re-verify before the run ends.
		if time.Until(deadline) < s.cfg.Downtime+5*time.Second {
			return
		}
		victim := s.fleet.Nodes[rng.Intn(len(s.fleet.Nodes))]
		if kill {
			s.writeGate.Lock() // drains in-flight writes; blocks new ones
			fmt.Fprintf(os.Stderr, "plsh-soak: chaos: SIGKILL %s for %v\n", victim.Addr, s.cfg.Downtime)
			victim.Kill()
			s.kills.Add(1)
			// The gate stays held for the whole downtime: any write while a
			// member is down diverges the group's mirrors.
			time.Sleep(s.cfg.Downtime)
			err := victim.Start()
			s.writeGate.Unlock()
			if err != nil {
				select {
				case harnessErr <- fmt.Errorf("restart %s: %w", victim.Addr, err):
				default:
				}
				return
			}
			fmt.Fprintf(os.Stderr, "plsh-soak: chaos: %s recovered and rejoined\n", victim.Addr)
		} else {
			fmt.Fprintf(os.Stderr, "plsh-soak: chaos: SIGSTOP %s for %v\n", victim.Addr, s.cfg.StallFor)
			if err := victim.Signal(syscall.SIGSTOP); err == nil {
				s.stalls.Add(1)
				time.Sleep(s.cfg.StallFor)
			}
			if err := victim.Signal(syscall.SIGCONT); err != nil {
				select {
				case harnessErr <- fmt.Errorf("SIGCONT %s: %w", victim.Addr, err):
				default:
				}
				return
			}
		}
		kill = !kill
	}
}

// finalAudit runs a quiescent verification sweep: with every node back
// up, a sample of live documents must all find themselves and answer
// soundly — the "sampled answers ≡ exhaustive oracle" exit criterion.
func (s *soak) finalAudit(ctx context.Context) {
	rng := rand.New(rand.NewSource(int64(s.cfg.Seed) ^ 0xa0d17))
	for i := 0; i < 8; i++ {
		id, q, ok := s.mirror.pick(rng)
		if !ok {
			return
		}
		oracle := s.mirror.snapshot()
		res, rep, err := s.cl.SearchBatch(ctx, []plsh.Vector{q}, s.searchOpts()...)
		fence := s.mirror.fence()
		if err != nil || !rep.Complete() {
			s.violations.Add(1)
			fmt.Fprintf(os.Stderr, "plsh-soak: VIOLATION: final audit search failed: err=%v\n", err)
			continue
		}
		s.verifySample(ctx, id, q, res[0].Matches, oracle, fence)
	}
}

func (s *soak) buildReport(ctx context.Context, started time.Time) report {
	rep := report{
		Config:     s.cfg,
		StartedAt:  started.UTC(),
		WallSec:    time.Since(started).Seconds(),
		Kills:      int(s.kills.Load()),
		Stalls:     int(s.stalls.Load()),
		Inserted:   s.inserted.Load(),
		Deleted:    s.deleted.Load(),
		Searches:   s.searches.Load(),
		Queries:    s.queries.Load(),
		Merges:     s.merges.Load(),
		MergeSkips: s.mergeSkips.Load(),

		SearchP50NS:  s.searchHist.Quantile(0.50).Nanoseconds(),
		SearchP99NS:  s.searchHist.Quantile(0.99).Nanoseconds(),
		SearchP999NS: s.searchHist.Quantile(0.999).Nanoseconds(),
		InsertP50NS:  s.insertHist.Quantile(0.50).Nanoseconds(),
		InsertP99NS:  s.insertHist.Quantile(0.99).Nanoseconds(),
		DeleteP50NS:  s.deleteHist.Quantile(0.50).Nanoseconds(),
		DeleteP99NS:  s.deleteHist.Quantile(0.99).Nanoseconds(),

		SearchErrors: s.searchErrors.Load(),
		WriteErrors:  s.writeErrors.Load(),
		Violations:   s.violations.Load(),
		Samples:      s.samples.Load(),
		RecallNoise:  s.recallSkips.Load(),
		Coord:        s.cl.CoordStats(),
	}
	if w := s.recallWant.Load(); w > 0 {
		rep.Recall = float64(s.recallHits.Load()) / float64(w)
	}
	totalOps := rep.Searches + rep.SearchErrors + rep.Inserted + rep.Deleted + rep.WriteErrors
	if totalOps > 0 {
		rep.ErrorRate = float64(rep.SearchErrors+rep.WriteErrors+rep.Violations) / float64(totalOps)
	}
	if sts, err := s.cl.Stats(ctx); err == nil {
		for _, st := range sts {
			rep.NodeSearches += st.SearchesServed
			rep.NodeInserts += st.InsertsServed
			rep.NodeDeletes += st.DeletesServed
			rep.NodeMerges += st.Merges
			if st.WALFsyncP99NS > rep.WALFsyncP99NS {
				rep.WALFsyncP99NS = st.WALFsyncP99NS
			}
		}
	} else {
		rep.SLOFailures = append(rep.SLOFailures, fmt.Sprintf("final stats sweep failed: %v", err))
	}
	rep.SLOFailures = append(rep.SLOFailures, s.checkSLOs(rep)...)
	return rep
}

// checkSLOs is the exit-code policy: latency and error-rate SLOs, plus
// consistency between injected faults and the counters that should have
// observed them — a soak that killed replicas but saw zero failovers
// was not testing what it claims.
func (s *soak) checkSLOs(rep report) []string {
	var fails []string
	if rep.SearchP99NS > s.cfg.SLOSearchP99.Nanoseconds() {
		fails = append(fails, fmt.Sprintf("search p99 %v exceeds SLO %v",
			time.Duration(rep.SearchP99NS), s.cfg.SLOSearchP99))
	}
	if rep.ErrorRate > s.cfg.MaxErrorRate {
		fails = append(fails, fmt.Sprintf("error rate %.4f exceeds %.4f (search=%d write=%d violations=%d)",
			rep.ErrorRate, s.cfg.MaxErrorRate, rep.SearchErrors, rep.WriteErrors, rep.Violations))
	}
	if rep.Violations > 0 {
		fails = append(fails, fmt.Sprintf("%d correctness violations (any is too many)", rep.Violations))
	}
	if rep.Samples > 0 && rep.Recall < s.cfg.MinRecall {
		fails = append(fails, fmt.Sprintf("sampled recall %.3f below floor %.3f", rep.Recall, s.cfg.MinRecall))
	}
	if rep.Samples == 0 && rep.Searches > 0 {
		fails = append(fails, "no search batches were verified against the oracle")
	}
	if rep.Kills > 0 && rep.Coord.Failovers == 0 {
		fails = append(fails, fmt.Sprintf("%d replicas killed but the coordinator recorded zero failovers", rep.Kills))
	}
	if rep.Stalls > 0 && s.cfg.Hedge > 0 && rep.Coord.HedgesWon == 0 {
		fails = append(fails, fmt.Sprintf("%d replicas stalled with hedging on but zero hedges won", rep.Stalls))
	}
	if s.cfg.Fsync && rep.Inserted > 0 && rep.WALFsyncP99NS == 0 {
		fails = append(fails, "fsync enabled and documents inserted, but no node reports WAL fsync latency")
	}
	if rep.Inserted > 0 && rep.NodeInserts < rep.Inserted {
		fails = append(fails, fmt.Sprintf("nodes report %d inserts served, client acknowledged %d",
			rep.NodeInserts, rep.Inserted))
	}
	return fails
}

// printSummary emits the human summary; the JSON report carries the same
// quantiles for machines.
func printSummary(rep report) {
	fmt.Printf("soak: %.0fs wall, %d kills, %d stalls, %d inserted, %d deleted, %d search batches (%d queries), %d merges\n",
		rep.WallSec, rep.Kills, rep.Stalls, rep.Inserted, rep.Deleted, rep.Searches, rep.Queries, rep.Merges)
	fmt.Printf("soak: search p50=%v p99=%v p999=%v  insert p99=%v  delete p99=%v\n",
		time.Duration(rep.SearchP50NS), time.Duration(rep.SearchP99NS), time.Duration(rep.SearchP999NS),
		time.Duration(rep.InsertP99NS), time.Duration(rep.DeleteP99NS))
	fmt.Printf("soak: recall %.3f over %d samples, error rate %.5f, coord failovers=%d hedges won=%d, wal fsync p99=%v\n",
		rep.Recall, rep.Samples, rep.ErrorRate, rep.Coord.Failovers, rep.Coord.HedgesWon,
		time.Duration(rep.WALFsyncP99NS))
}

func writeReport(path string, rep report) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
