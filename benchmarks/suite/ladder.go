package main

import (
	"context"
	"fmt"
	"io/fs"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"plsh"
	"plsh/internal/bitvec"
	"plsh/internal/cluster"
	"plsh/internal/core"
	"plsh/internal/delta"
	"plsh/internal/lshhash"
	"plsh/internal/node"
	"plsh/internal/perfmodel"
	"plsh/internal/persist"
	"plsh/internal/sparse"
	"plsh/internal/transport"
)

// ladderCapacity is the node capacity of the ladder's in-process nodes:
// the base set, every rung's inserted rows, and room to spare. The arena
// is allocated by capacity, and the ladder keeps up to four nodes alive at
// once, so it does not use the workloads' 1<<20.
const ladderCapacity = 1 << 17

// ladder is the traced run: one sequential client, a fixed number of
// operations, the workloads' corpus and query pool, every layer timed from
// outside through its public functions. Its readings depend on the seed
// alone, not on the workload.
type ladder struct {
	ctx     context.Context
	e       *env
	in      *inputs
	fam     *lshhash.Family
	mat     *sparse.Matrix  // the base set as one CSR arena
	queries []sparse.Vector // the first ladderQueries of the pool
	fresh   []sparse.Vector // stream documents for the insert rungs
	rec     *recorder
	out     map[string]float64
}

func runLadder(ctx context.Context, e *env, traceOut string) (map[string]float64, error) {
	sz := e.sz
	in := makeInputs(e.seed, sz, sz.ladderBatches*(sz.streamBatch+sz.paceBatch))
	fam, err := lshhash.NewFamily(lshhash.Params{Dim: vocabSize, K: lshK, M: lshM, Seed: 1})
	if err != nil {
		return nil, err
	}
	l := &ladder{ctx: ctx, e: e, in: in, fam: fam, fresh: in.docs[sz.n0:], rec: newRecorder(), out: map[string]float64{}}
	l.mat = sparse.NewMatrix(vocabSize, sz.n0, 8*sz.n0)
	for _, d := range in.base() {
		l.mat.AppendRow(d)
	}
	for i := 0; i < min(sz.ladderQueries, len(in.queries)); i++ {
		l.queries = append(l.queries, in.docs[in.queries[i]])
	}
	for _, rung := range []struct {
		name string
		run  func() error
	}{
		{"kernels", l.kernels},
		{"core", l.core},
		{"delta", l.delta},
		{"node", l.node},
		{"persist", l.persist},
		{"cluster scatter", l.scatter},
		{"cluster routed", l.routed},
		{"plsh", l.front},
	} {
		t0 := time.Now()
		if err := rung.run(); err != nil {
			return nil, fmt.Errorf("%s rung: %w", rung.name, err)
		}
		fmt.Printf("# ladder: %-16s %6.2fs\n", rung.name, time.Since(t0).Seconds())
		runtime.GC() // the next rung's nodes should not pay for this one's garbage
	}
	if traceOut != "" {
		if err := l.rec.write(traceOut); err != nil {
			return nil, fmt.Errorf("trace file: %w", err)
		}
		fmt.Printf("# ladder: %d spans written to %s\n", l.rec.len(), traceOut)
	}
	return l.out, nil
}

// timeEach runs fn n times and returns every call's duration, ns.
func timeEach(n int, fn func(i int) error) ([]int64, error) {
	lat := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		err := fn(i)
		lat = append(lat, int64(time.Since(t0)))
		if err != nil {
			return nil, err
		}
	}
	return lat, nil
}

func medianNS(lat []int64) float64 {
	s := slices.Clone(lat)
	slices.Sort(s)
	return float64(quantile(s, 0.5))
}

func sumNS(lat []int64) (total int64) {
	for _, v := range lat {
		total += v
	}
	return total
}

func (l *ladder) batch(i, size int) []sparse.Vector { return l.fresh[i*size : (i+1)*size] }

// kernels: sparse and lshhash.
func (l *ladder) kernels() error {
	const candidates = 64
	qm := sparse.NewQueryMask(vocabSize)
	base := l.in.base()
	var sink float64
	lat, _ := timeEach(len(l.queries), func(i int) error {
		qm.Scatter(l.queries[i])
		for j := 0; j < candidates; j++ {
			d := base[(i*candidates+j)*7919%len(base)]
			sink += qm.Dot(d.Idx, d.Val)
		}
		qm.Unscatter()
		return nil
	})
	l.out["sparse.maskdot_ns"] = medianNS(lat) / candidates

	p := l.fam.Params()
	scores, sketch := make([]float32, p.NumFuncs()), make([]uint32, p.M)
	lat, _ = timeEach(len(l.queries), func(i int) error {
		l.fam.SketchInto(l.queries[i], scores, sketch)
		return nil
	})
	l.out["lshhash.sketch_query_ns"] = medianNS(lat)

	var sk *lshhash.Sketches
	size := l.e.sz.streamBatch
	lat, _ = timeEach(l.e.sz.ladderBatches, func(i int) error {
		sk = l.fam.AppendSketches(sk, l.batch(i, size))
		return nil
	})
	l.out["lshhash.sketch_docs_per_s"] = float64(sk.N()) / (float64(sumNS(lat)) / 1e9)
	if math.IsNaN(sink) {
		return fmt.Errorf("dot products produced NaN")
	}
	return nil
}

// core: static build, the engine's search with its Q2/Q3 split and work
// counts, and the §7 model's prediction beside the measurement.
func (l *ladder) core() error {
	t0 := time.Now()
	st, _, err := core.BuildTimed(l.fam, l.mat, core.Defaults())
	if err != nil {
		return err
	}
	l.out["core.build_s"] = time.Since(t0).Seconds()

	eng := core.NewEngine(st, l.mat, core.QueryDefaults())
	var dst []core.Neighbor
	var work core.QueryStats
	lat, _ := timeEach(len(l.queries), func(i int) error {
		var qs core.QueryStats
		dst, qs = eng.SearchAppend(dst[:0], l.queries[i], core.SearchParams{})
		work.Collisions += qs.Collisions
		work.Unique += qs.Unique
		work.Results += qs.Results
		return nil
	})
	nq := float64(len(l.queries))
	l.out["core.search_ns"] = medianNS(lat)
	l.out["core.collisions_per_query"] = float64(work.Collisions) / nq
	l.out["core.unique_per_query"] = float64(work.Unique) / nq
	l.out["core.results_per_unique"] = float64(work.Results) / float64(max(work.Unique, 1))

	// The phase split comes from a second engine: collecting phases reads
	// the clock inside the query, which the search_ns pass must not pay.
	opts := core.QueryDefaults()
	opts.CollectPhases = true
	phased := core.NewEngine(st, l.mat, opts)
	for _, q := range l.queries {
		dst, _ = phased.SearchAppend(dst[:0], q, core.SearchParams{})
	}
	ph := phased.Phases()
	l.out["core.q2_ns"] = float64(ph.Q2NS) / nq
	l.out["core.q3_ns"] = float64(ph.Q3NS) / nq

	// The model predicts a mean, so it is compared with the mean.
	wl := perfmodel.SampleWorkload(l.mat, 1000, 1000, l.e.seed+7)
	costs := perfmodel.CalibrateFor(perfmodel.DefaultCalibration(vocabSize, wl.MeanNNZ, l.mat.Rows(), lshK, lshM))
	est := costs.EstimateQuery(wl, lshK, lshM)
	l.out["perfmodel.query_error_pct"] = 100 * perfmodel.RelativeError(est.TotalNS, float64(sumNS(lat))/nq)
	return nil
}

// delta: the streaming table alone.
func (l *ladder) delta() error {
	sz := l.e.sz
	workers := nproc()
	tb := delta.New(l.fam, workers)
	lat, _ := timeEach(sz.ladderBatches, func(i int) error {
		tb.Insert(l.batch(i, sz.streamBatch))
		return nil
	})
	l.out["delta.insert_docs_per_s"] = float64(tb.Len()) / (float64(sumNS(lat)) / 1e9)

	p := l.fam.Params()
	scores, sketch := make([]float32, p.NumFuncs()), make([]uint32, p.M)
	seen := bitvec.New(tb.Len())
	var cand []uint32
	lat, _ = timeEach(len(l.queries), func(i int) error {
		l.fam.SketchInto(l.queries[i], scores, sketch)
		cand, _ = tb.Candidates(sketch, seen, cand[:0])
		seen.ResetList(cand)
		return nil
	})
	l.out["delta.candidates_ns"] = medianNS(lat)

	// Two frozen halves of the same rows, coalesced the way the node folds
	// its segment chain.
	half := sz.ladderBatches / 2 * sz.streamBatch
	a, b := delta.New(l.fam, workers), delta.New(l.fam, workers)
	a.Insert(l.fresh[:half])
	b.Insert(l.fresh[half : 2*half])
	a.Freeze()
	b.Freeze()
	t0 := time.Now()
	merged := delta.Coalesce(l.fam, a, b, workers, nil)
	l.out["delta.coalesce_ms"] = float64(time.Since(t0)) / 1e6
	if merged.Len() != 2*half {
		return fmt.Errorf("coalesced table holds %d rows, want %d", merged.Len(), 2*half)
	}
	return nil
}

func (l *ladder) openNode(dir string) (*node.Node, error) {
	query := core.QueryDefaults()
	query.Radius = radius
	return node.Open(l.ctx, node.Config{
		Params:   l.fam.Params(),
		Capacity: ladderCapacity,
		// The ladder decides when a merge happens.
		AutoMerge: false,
		Build:     core.Defaults(),
		Query:     query,
		Dir:       dir,
	})
}

// bulk feeds the base set through insert in ladderBulk-document batches —
// untimed set-up of a rung.
func (l *ladder) bulk(insert func([]sparse.Vector) error) error {
	base := l.in.base()
	for lo := 0; lo < len(base); lo += l.e.sz.ladderBulk {
		if err := insert(base[lo:min(lo+l.e.sz.ladderBulk, len(base))]); err != nil {
			return err
		}
	}
	return nil
}

func (l *ladder) loadedNode(dir string) (*node.Node, error) {
	n, err := l.openNode(dir)
	if err != nil {
		return nil, err
	}
	err = l.bulk(func(vs []sparse.Vector) error { _, err := n.Insert(l.ctx, vs); return err })
	if err == nil {
		err = n.MergeNow(l.ctx)
	}
	if err != nil {
		_ = n.Close() // abandoning a half-built rung
		return nil, err
	}
	return n, nil
}

func (l *ladder) searchNode(n *node.Node) ([]int64, error) {
	var dst []core.Neighbor
	return timeEach(len(l.queries), func(i int) (err error) {
		dst, err = n.SearchAppend(l.ctx, dst[:0], l.queries[i], node.SearchParams{})
		return err
	})
}

// node: one in-memory node, fully merged, then with a delta chain and
// tombstones, then merging it; the transport rung runs against the same
// node while it is static.
func (l *ladder) node() error {
	sz := l.e.sz
	n, err := l.loadedNode("")
	if err != nil {
		return err
	}
	defer n.Close()
	lat, err := l.searchNode(n)
	if err != nil {
		return err
	}
	l.out["node.search_static_ns"] = medianNS(lat)
	l.out["node.self_static_ns"] = medianNS(lat) - l.out["core.search_ns"]

	srv, err := l.serve(n, 0)
	if err != nil {
		return err
	}
	defer srv.stop()
	if err := l.transportSearch(srv); err != nil {
		return err
	}

	lat, err = timeEach(sz.ladderBatches, func(i int) error {
		_, err := n.Insert(l.ctx, l.batch(i, sz.streamBatch))
		return err
	})
	if err != nil {
		return err
	}
	l.out["node.insert_batch_ms"] = medianNS(lat) / 1e6
	deltaRows := sz.ladderBatches * sz.streamBatch
	for j := 0; j < deltaRows/100; j++ { // 1 % tombstones, spread over the delta
		if err := n.Delete(uint32(sz.n0 + j*100 + 7)); err != nil {
			return err
		}
	}
	if lat, err = l.searchNode(n); err != nil {
		return err
	}
	l.out["node.search_delta_ns"] = medianNS(lat)
	t0 := time.Now()
	if err := n.MergeNow(l.ctx); err != nil {
		return err
	}
	l.out["node.merge_ms"] = float64(time.Since(t0)) / 1e6

	return l.transportInsert(srv)
}

// server is one in-process node behind transport.Serve on a loopback
// listener that counts bytes.
type server struct {
	lis    *countingListener
	client *transport.Client
	cancel context.CancelFunc
	done   chan error
}

func (l *ladder) serve(n *node.Node, i int) (*server, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{lis: &countingListener{Listener: lis}, done: make(chan error, 1)}
	sctx, cancel := context.WithCancel(l.ctx)
	s.cancel = cancel
	backend := &spanBackend{Local: transport.NewLocal(n), rec: l.rec, i: i}
	go func() { s.done <- transport.Serve(sctx, s.lis, backend, nil) }()
	if s.client, err = transport.Dial(l.ctx, lis.Addr().String()); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// stop closes the client, stops the server and waits for it.
func (s *server) stop() {
	if s.client != nil {
		_ = s.client.Close() // the rung is over
	}
	s.cancel()
	<-s.done
}

// tracedPass runs fn n times with the recorder on, each call one request
// inside a top-level span named name, and returns what layerMedians makes
// of the spans. With asClient the top-level span doubles as node 0's
// client-side span, so the backend span the server records nests directly
// under it.
func (l *ladder) tracedPass(name string, asClient bool, n int, fn func(i int) error) (float64, map[string]float64, error) {
	l.rec.on.Store(true)
	defer l.rec.on.Store(false)
	from := l.rec.len()
	for i := 0; i < n; i++ {
		top := l.rec.request(name, asClient)
		err := fn(i)
		l.rec.end(top)
		if err != nil {
			return 0, nil, err
		}
	}
	return l.layerMedians(from)
}

// layerMedians runs the spans recorded since from through selfByLayer per
// request and returns the median top-level duration and the median self
// time of each layer. It fails if the layers do not add up to the
// top-level spans within 5 %.
func (l *ladder) layerMedians(from int) (float64, map[string]float64, error) {
	var total []int64
	self := map[string][]int64{}
	var sumTop, sumSelf int64
	for _, req := range byRequest(l.rec.take(from)) {
		top := req[0]
		total = append(total, top.End-top.Start)
		sumTop += top.End - top.Start
		for layer, ns := range selfByLayer(req) {
			self[layer] = append(self[layer], ns)
			sumSelf += ns
		}
	}
	if d := math.Abs(float64(sumSelf-sumTop)) / float64(max(sumTop, 1)); d > 0.05 {
		return 0, nil, fmt.Errorf("layer self times sum to %d ns, top-level spans to %d ns: off by %.1f%%", sumSelf, sumTop, 100*d)
	}
	med := map[string]float64{}
	for layer, v := range self {
		med[layer] = medianNS(v)
	}
	return medianNS(total), med, nil
}

// transportSearch: Client.Search over loopback TCP, one query and sixteen,
// with the bytes each query puts on the wire.
func (l *ladder) transportSearch(s *server) error {
	bytes0 := s.lis.total()
	rtt, self, err := l.tracedPass("transport.search", true, len(l.queries), func(i int) error {
		_, err := s.client.Search(l.ctx, l.queries[i:i+1], node.SearchParams{})
		return err
	})
	if err != nil {
		return err
	}
	l.out["transport.search_rtt_ns"] = rtt
	l.out["transport.self_search_ns"] = self["transport"]
	l.out["transport.wire_bytes_per_query"] = float64(s.lis.total()-bytes0) / float64(len(l.queries))

	size := l.e.sz.searchBatch
	rtt, self, err = l.tracedPass("transport.search_batch", true, len(l.queries)/size, func(i int) error {
		_, err := s.client.Search(l.ctx, l.queries[i*size:(i+1)*size], node.SearchParams{})
		return err
	})
	if err != nil {
		return err
	}
	l.out["transport.search_batch16_rtt_us"] = rtt / 1e3
	l.out["transport.self_search_batch16_us"] = self["transport"] / 1e3
	return nil
}

// transportInsert: Client.Insert of paceBatch documents over the same
// connection.
func (l *ladder) transportInsert(s *server) error {
	sz := l.e.sz
	// The insert rungs of the node took the first ladderBatches×streamBatch
	// fresh documents; these are the ones after them.
	docs := l.fresh[sz.ladderBatches*sz.streamBatch:]
	bytes0 := s.lis.total()
	rtt, self, err := l.tracedPass("transport.insert", true, sz.ladderBatches, func(i int) error {
		_, err := s.client.Insert(l.ctx, docs[i*sz.paceBatch:(i+1)*sz.paceBatch])
		return err
	})
	if err != nil {
		return err
	}
	l.out["transport.insert_rtt_ms"] = rtt / 1e6
	l.out["transport.self_insert_ms"] = self["transport"] / 1e6
	l.out["transport.wire_bytes_per_doc"] = float64(s.lis.total()-bytes0) / float64(sz.ladderBatches*sz.paceBatch)
	return nil
}

// persist: a durable node's insert, then its on-disk image — snapshot
// write and read, journal append and replay.
func (l *ladder) persist() error {
	sz := l.e.sz
	dir, err := l.e.newDir("ladder-node")
	if err != nil {
		return err
	}
	n, err := l.loadedNode(dir)
	if err != nil {
		return err
	}
	lat, err := timeEach(sz.ladderBatches, func(i int) error {
		_, err := n.Insert(l.ctx, l.batch(i, sz.streamBatch))
		return err
	})
	if err == nil {
		err = n.Save(l.ctx)
	}
	if cerr := n.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	l.out["node.insert_durable_batch_ms"] = medianNS(lat) / 1e6

	info, err := os.Stat(persist.SnapshotPath(dir))
	if err != nil {
		return err
	}
	mb := float64(info.Size()) / 1e6
	t0 := time.Now()
	snap, err := persist.ReadSnapshot(dir)
	if err != nil {
		return err
	}
	l.out["persist.snapshot_read_mb_per_s"] = mb / time.Since(t0).Seconds()
	l.out["persist.snapshot_bytes_per_doc"] = float64(info.Size()) / float64(snap.Rows)
	copyDir, err := l.e.newDir("ladder-snapshot")
	if err != nil {
		return err
	}
	t0 = time.Now()
	if err := persist.WriteSnapshot(copyDir, snap); err != nil {
		return err
	}
	l.out["persist.snapshot_write_mb_per_s"] = mb / time.Since(t0).Seconds()

	walDir, err := l.e.newDir("ladder-wal")
	if err != nil {
		return err
	}
	wal, err := persist.OpenWAL(walDir, false)
	if err != nil {
		return err
	}
	lat, err = timeEach(sz.ladderBatches, func(i int) error {
		return wal.AppendInsert(i*sz.streamBatch, l.batch(i, sz.streamBatch))
	})
	if cerr := wal.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	docs := sz.ladderBatches * sz.streamBatch
	l.out["persist.wal_append_docs_per_s"] = float64(docs) / (float64(sumNS(lat)) / 1e9)
	var walBytes int64
	err = filepath.WalkDir(walDir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		walBytes += info.Size()
		return err
	})
	if err != nil {
		return err
	}
	l.out["persist.wal_bytes_per_doc"] = float64(walBytes) / float64(docs)
	replayed := 0
	t0 = time.Now()
	err = persist.ReplayWAL(walDir, func(r *persist.Record) error {
		replayed += len(r.Docs)
		return nil
	})
	if err != nil {
		return err
	}
	l.out["persist.replay_docs_per_s"] = float64(replayed) / time.Since(t0).Seconds()
	if replayed != docs {
		return fmt.Errorf("journal replayed %d documents, %d were appended", replayed, docs)
	}
	for _, d := range []string{dir, copyDir, walDir} {
		if err := os.RemoveAll(d); err != nil {
			return err
		}
	}
	return nil
}

// coordinator is an in-process fleet: nodes behind transport.Serve on
// loopback listeners, span-decorated clients, one cluster over them.
type coordinator struct {
	servers []*server
	nodes   []*node.Node
	cl      *cluster.Cluster
}

func (l *ladder) coordinator(opts cluster.Options) (*coordinator, error) {
	c := &coordinator{}
	clients := make([]transport.NodeClient, fleetNodes)
	for i := range clients {
		n, err := l.openNode("")
		if err != nil {
			c.stop()
			return nil, err
		}
		c.nodes = append(c.nodes, n)
		s, err := l.serve(n, i)
		if err != nil {
			c.stop()
			return nil, err
		}
		c.servers = append(c.servers, s)
		clients[i] = &spanClient{NodeClient: s.client, rec: l.rec, i: i}
	}
	cl, err := cluster.NewWithOptions(l.ctx, clients, opts)
	if err != nil {
		c.stop()
		return nil, err
	}
	c.cl = cl
	err = l.bulk(func(vs []sparse.Vector) error { _, err := cl.Insert(l.ctx, vs); return err })
	if err == nil {
		err = cl.MergeAll(l.ctx)
	}
	if err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

func (c *coordinator) stop() {
	for _, s := range c.servers {
		s.stop() // closes the client the coordinator was given, too
	}
	for _, n := range c.nodes {
		_ = n.Close() // in-memory nodes: nothing to lose
	}
}

// scatter: cluster.Search over 2 groups × 2 replicas, traced and untraced,
// and the mirrored insert.
func (l *ladder) scatter() error {
	c, err := l.coordinator(cluster.Options{WindowM: 2, Replicas: 2})
	if err != nil {
		return err
	}
	defer c.stop()
	params := node.SearchParams{K: topK}
	search := func(i int) error {
		res, _, err := c.cl.Search(l.ctx, l.queries[i:i+1], params, cluster.BatchOptions{})
		c.cl.ReleaseResults(res)
		return err
	}

	total, self, err := l.tracedPass("cluster.search", false, len(l.queries), search)
	if err != nil {
		return err
	}
	l.out["cluster.search_scatter_ns"] = total
	l.out["cluster.self_scatter_ns"] = self["cluster"]

	untraced, err := timeEach(len(l.queries), search)
	if err != nil {
		return err
	}
	l.out["trace.overhead_pct"] = 100 * (total - medianNS(untraced)) / medianNS(untraced)

	sz := l.e.sz
	total, self, err = l.tracedPass("cluster.insert", false, sz.ladderBatches, func(i int) error {
		_, err := c.cl.Insert(l.ctx, l.batch(i, sz.paceBatch))
		return err
	})
	if err != nil {
		return err
	}
	l.out["cluster.insert_mirror_ms"] = total / 1e6
	l.out["cluster.self_insert_ms"] = self["cluster"] / 1e6
	return nil
}

// routed: cluster.Search over 4 partitioned groups, sixteen queries a
// call, with the router's own cost and how many groups a query reaches.
func (l *ladder) routed() error {
	router, err := cluster.NewRouter(l.fam, cluster.RouterConfig{Groups: fleetNodes, Radius: radius, Recall: 0.9})
	if err != nil {
		return err
	}
	c, err := l.coordinator(cluster.Options{Placement: cluster.PlacementPartitioned, Router: router})
	if err != nil {
		return err
	}
	defer c.stop()
	params := node.SearchParams{K: topK}
	size := l.e.sz.searchBatch
	batches := len(l.queries) / size

	total, self, err := l.tracedPass("cluster.search_batch", false, batches, func(i int) error {
		res, _, err := c.cl.Search(l.ctx, l.queries[i*size:(i+1)*size], params, cluster.BatchOptions{})
		c.cl.ReleaseResults(res)
		return err
	})
	if err != nil {
		return err
	}
	l.out["cluster.search_routed_batch16_us"] = total / 1e3
	l.out["cluster.self_routed_batch16_us"] = self["cluster"] / 1e3

	// The report's routing counts exist only on traced calls, which cost
	// more; they get their own untimed pass.
	routedGroups := 0
	for i := 0; i < batches; i++ {
		res, report, err := c.cl.Search(l.ctx, l.queries[i*size:(i+1)*size], params, cluster.BatchOptions{Trace: true})
		if err != nil {
			return err
		}
		c.cl.ReleaseResults(res)
		routedGroups += report.RoutedGroups
	}
	l.out["cluster.routed_groups_per_query"] = float64(routedGroups) / float64(max(batches*size, 1))

	var probe []int
	lat, _ := timeEach(len(l.queries), func(i int) error {
		probe, _ = router.Probe(l.queries[i], 0, probe[:0])
		return nil
	})
	l.out["cluster.router_probe_ns"] = medianNS(lat)
	return nil
}

// mallocs is the process-wide allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// front: the public plsh surface over what the rungs below measured —
// Store.Search against node.search_static_ns, and allocations per call
// for Store and for an in-process Cluster.
func (l *ladder) front() error {
	cfg := plsh.Config{Dim: vocabSize, Capacity: ladderCapacity}
	pass := func(idx plsh.Index, opts ...plsh.SearchOption) ([]int64, float64, error) {
		err := l.bulk(func(vs []sparse.Vector) error { _, err := idx.Insert(l.ctx, vs); return err })
		if err == nil {
			err = idx.Merge(l.ctx)
		}
		if err != nil {
			return nil, 0, err
		}
		before := mallocs()
		lat, err := timeEach(len(l.queries), func(i int) error {
			_, err := idx.Search(l.ctx, l.queries[i], opts...)
			return err
		})
		return lat, float64(mallocs()-before) / float64(len(l.queries)), err
	}

	st, err := plsh.Open(l.ctx, "", cfg)
	if err != nil {
		return err
	}
	lat, allocs, err := pass(st)
	_ = st.Close() // in-memory
	if err != nil {
		return err
	}
	l.out["plsh.store_search_ns"] = medianNS(lat)
	l.out["plsh.self_store_search_ns"] = medianNS(lat) - l.out["node.search_static_ns"]
	l.out["plsh.store_search_allocs"] = allocs

	cfg.Replicas = 2
	cl, err := plsh.OpenCluster(l.ctx, fleetNodes, 2, cfg)
	if err != nil {
		return err
	}
	_, allocs, err = pass(cl, plsh.WithK(topK))
	_ = cl.Close() // in-memory
	if err != nil {
		return err
	}
	l.out["plsh.cluster_search_allocs"] = allocs
	return nil
}
