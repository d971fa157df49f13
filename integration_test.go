package plsh

import (
	"context"
	"errors"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"plsh/internal/core"
	"plsh/internal/lshhash"
	"plsh/internal/node"
	"plsh/internal/persist"
	"plsh/internal/sparse"
	"plsh/internal/transport"
)

// serveBackend serves any NodeClient over TCP on an ephemeral port.
func serveBackend(t *testing.T, backend transport.NodeClient) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go transport.Serve(ctx, l, backend, nil)
	return l.Addr().String()
}

// startTestNode serves a fresh node over TCP on an ephemeral port.
func startTestNode(t *testing.T, capacity int) string {
	t.Helper()
	n, err := node.Open(bg, node.Config{
		Params:   lshhash.Params{Dim: 2000, K: 8, M: 6, Seed: 42},
		Capacity: capacity,
		Build:    core.Defaults(),
		Query:    core.QueryDefaults(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return serveBackend(t, transport.NewLocal(n))
}

// TestTCPClusterEndToEnd drives the full public pipeline — encode, insert,
// query, delete, expire — against real TCP node servers, verifying the
// distributed deployment path works exactly like the in-process one.
func TestTCPClusterEndToEnd(t *testing.T) {
	addrs := []string{
		startTestNode(t, 150),
		startTestNode(t, 150),
		startTestNode(t, 150),
	}
	remote, err := DialCluster(bg, addrs, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	// Seed must match the TCP nodes' hash families: LSH answers are only
	// comparable across stores drawing identical hyperplanes.
	local, err := NewCluster(3, 2, Config{Dim: 2000, K: 8, M: 6, Capacity: 150, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()

	docs := SyntheticTweets(400, 2000, 7) // 400 > 3×150·(2/3): forces a wrap
	idsR, err := remote.Insert(bg, docs)
	if err != nil {
		t.Fatal(err)
	}
	idsL, err := local.Insert(bg, docs)
	if err != nil {
		t.Fatal(err)
	}
	if len(idsR) != len(idsL) {
		t.Fatalf("id counts differ: %d vs %d", len(idsR), len(idsL))
	}

	// Identical seeds and routing → identical answers.
	queries := docs[len(docs)-20:]
	resR, _, err := remote.SearchBatch(bg, queries)
	if err != nil {
		t.Fatal(err)
	}
	resL, _, err := local.SearchBatch(bg, queries)
	if err != nil {
		t.Fatal(err)
	}
	for qi := range queries {
		if len(resR[qi].Matches) != len(resL[qi].Matches) {
			t.Fatalf("query %d: TCP %d results, local %d", qi, len(resR[qi].Matches), len(resL[qi].Matches))
		}
	}

	// Top-K answers agree across transports too (identical merge input).
	for qi, q := range queries[:5] {
		resR, err := remote.Search(bg, q, WithK(5))
		if err != nil {
			t.Fatal(err)
		}
		resL, err := local.Search(bg, q, WithK(5))
		if err != nil {
			t.Fatal(err)
		}
		topR, topL := resR.Matches, resL.Matches
		if len(topR) != len(topL) {
			t.Fatalf("top-k query %d: TCP %d results, local %d", qi, len(topR), len(topL))
		}
		for i := range topR {
			if topR[i] != topL[i] {
				t.Fatalf("top-k query %d entry %d: TCP %+v, local %+v", qi, i, topR[i], topL[i])
			}
		}
	}

	// Newest doc findable over TCP; delete removes it.
	last := len(docs) - 1
	found := func() bool {
		res, err := remote.Search(bg, docs[last])
		if err != nil {
			t.Fatal(err)
		}
		return hasMatch(res.Matches, idsR[last])
	}
	if !found() {
		t.Fatal("newest doc not found over TCP")
	}
	if err := remote.Delete(bg, idsR[last]); err != nil {
		t.Fatal(err)
	}
	if found() {
		t.Fatal("deleted doc still returned over TCP")
	}

	// Stats reach across the wire.
	stats, err := remote.Stats(bg)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, st := range stats {
		total += st.StaticLen + st.DeltaLen
	}
	if total == 0 || total > 450 {
		t.Fatalf("implausible cluster total %d", total)
	}
}

// slowBackend is a NodeClient whose query path never answers (it blocks
// until the server shuts down), standing in for a stalled node.
type slowBackend struct{}

func (slowBackend) Insert(ctx context.Context, vs []sparse.Vector) ([]uint32, error) {
	return make([]uint32, len(vs)), nil
}
func (slowBackend) Search(ctx context.Context, qs []sparse.Vector, p node.SearchParams) ([][]core.Neighbor, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}
func (slowBackend) Doc(ctx context.Context, id uint32) (sparse.Vector, bool, error) {
	return sparse.Vector{}, false, nil
}
func (slowBackend) Delete(ctx context.Context, id uint32) error { return nil }
func (slowBackend) MergeNow(ctx context.Context) error          { return nil }
func (slowBackend) Flush(ctx context.Context) error             { return nil }
func (slowBackend) Retire(ctx context.Context) error            { return nil }
func (slowBackend) Save(ctx context.Context) error              { return nil }
func (slowBackend) Stats(ctx context.Context) (node.Stats, error) {
	return node.Stats{Capacity: 1000}, nil
}
func (slowBackend) Close() error { return nil }

// TestDialClusterBroadcastHonorsCancellation: over real TCP, a canceled
// context aborts a DialCluster broadcast with ctx.Err() even while one
// node never answers — the coordinator must not wait out the straggler.
func TestDialClusterBroadcastHonorsCancellation(t *testing.T) {
	addrs := []string{
		startTestNode(t, 1000),
		serveBackend(t, slowBackend{}), // this node will never answer a query
	}
	cl, err := DialCluster(bg, addrs, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	docs := SyntheticTweets(50, 2000, 21)
	if _, err := cl.Insert(bg, docs); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(bg)
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	t0 := time.Now()
	_, _, err = cl.SearchBatch(ctx, docs[:5])
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if elapsed := time.Since(t0); elapsed > 10*time.Second {
		t.Fatalf("broadcast took %v despite cancellation", elapsed)
	}

	// A deadline works the same way.
	dctx, dcancel := context.WithTimeout(bg, 50*time.Millisecond)
	defer dcancel()
	if _, _, err := cl.SearchBatch(dctx, docs[:5]); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}

	// The same cluster answers fine when given room — but only partially,
	// since the slow node still never replies: the partial-results policy
	// returns the healthy node's answers and reports the straggler.
	res, report, err := cl.SearchBatch(bg, docs[:5],
		WithNodeTimeout(100*time.Millisecond), AllowPartial())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 {
		t.Fatalf("partial results: %d answer lists", len(res))
	}
	if s := report.Stragglers(); len(s) != 1 || s[0] != 1 {
		t.Fatalf("stragglers = %v, want [1]", s)
	}
}

// TestDialClusterRefusesDeadAddress pins dial-time intolerance (DESIGN.md
// "Not guaranteed"): DialCluster over two live servers and one address
// nobody listens on fails naming the dead address, and closes the
// connections it opened to the live ones — each server sees EOF.
func TestDialClusterRefusesDeadAddress(t *testing.T) {
	var addrs []string
	var eofs []chan struct{}
	for range 2 {
		n, err := node.Open(bg, node.Config{
			Params:   lshhash.Params{Dim: 2000, K: 8, M: 6, Seed: 42},
			Capacity: 100,
			Build:    core.Defaults(),
			Query:    core.QueryDefaults(),
		})
		if err != nil {
			t.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(bg)
		t.Cleanup(cancel)
		eof := make(chan struct{}, 1)
		go transport.Serve(ctx, eofListener{l, eof}, transport.NewLocal(n), nil)
		addrs = append(addrs, l.Addr().String())
		eofs = append(eofs, eof)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := l.Addr().String()
	l.Close()

	cl, err := DialCluster(bg, []string{addrs[0], dead, addrs[1]}, 1)
	if err == nil {
		cl.Close()
		t.Fatal("DialCluster succeeded with a dead endpoint")
	}
	if !strings.Contains(err.Error(), dead) {
		t.Fatalf("error %q does not name the dead address %s", err, dead)
	}
	for i, eof := range eofs {
		select {
		case <-eof:
		case <-time.After(5 * time.Second):
			t.Fatalf("live server %s never saw its connection closed", addrs[i])
		}
	}
}

// TestDialClusterRefusesUndividedReplicasBeforeDialing: three addresses
// cannot form groups of two replicas, and DialCluster says so before it
// opens a connection. The addresses point at one listener that answers
// nothing; once DialCluster has returned, a sentinel connection is dialed
// and accepted, and the listener accepts in arrival order, so any
// connection DialCluster had opened would have been accepted before it.
func TestDialClusterRefusesUndividedReplicasBeforeDialing(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan net.Conn, 8)
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			accepted <- c
		}
	}()
	addr := l.Addr().String()
	ctx, cancel := context.WithTimeout(bg, 2*time.Second)
	defer cancel()
	cl, err := DialCluster(ctx, []string{addr, addr, addr}, 1, WithReplicas(2))
	if err == nil {
		cl.Close()
		t.Fatal("DialCluster accepted 3 addresses under WithReplicas(2)")
	}
	if !strings.Contains(err.Error(), "cannot form groups") {
		t.Fatalf("error %q does not name the grouping", err)
	}
	sentinel, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer sentinel.Close()
	for n := 1; ; n++ {
		select {
		case c := <-accepted:
			c.Close()
			if c.RemoteAddr().String() == sentinel.LocalAddr().String() {
				if n > 1 {
					t.Fatalf("the listener accepted %d connections from DialCluster", n-1)
				}
				return
			}
		case <-time.After(5 * time.Second):
			t.Fatal("the sentinel connection was never accepted")
		}
	}
}

// eofListener signals eof once a connection it accepted reads end of
// stream: the peer closed it.
type eofListener struct {
	net.Listener
	eof chan struct{}
}

func (l eofListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return eofConn{c, l.eof}, nil
}

type eofConn struct {
	net.Conn
	eof chan struct{}
}

func (c eofConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if err == io.EOF {
		select {
		case c.eof <- struct{}{}:
		default:
		}
	}
	return n, err
}

// TestStoreStreamsPastDeltaThreshold verifies the public Store merges
// automatically and stays correct across the static/delta boundary.
func TestStoreStreamsPastDeltaThreshold(t *testing.T) {
	s, err := NewStore(Config{Dim: 2000, K: 8, M: 6, Capacity: 3000, DeltaFraction: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	docs := SyntheticTweets(1200, 2000, 9)
	for off := 0; off < len(docs); off += 100 {
		if _, err := s.Insert(bg, docs[off:off+100]); err != nil {
			t.Fatal(err)
		}
	}
	// Merges are asynchronous now: wait for any in-flight one before
	// reading settled stats.
	if err := s.Flush(bg); err != nil {
		t.Fatal(err)
	}
	st := s.StatsNow()
	if st.Merges == 0 {
		t.Fatal("no automatic merges despite exceeding η·C repeatedly")
	}
	for i := 0; i < len(docs); i += 113 {
		res, err := s.Search(bg, docs[i])
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, m := range res.Matches {
			if m.ID == uint64(i) {
				found = true
			}
		}
		if !found {
			t.Fatalf("doc %d lost across merges", i)
		}
	}
}

// dialRetry dials addr until the server is up (it may still be replaying
// its journal when the test reconnects after a restart).
func dialRetry(t *testing.T, addr string) *transport.Client {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		c, err := transport.Dial(bg, addr)
		if err == nil {
			// The listener may accept before Serve is wired; verify with a
			// real RPC.
			if _, serr := c.Stats(bg); serr == nil {
				return c
			}
			c.Close()
		}
		if time.Now().After(deadline) {
			t.Fatalf("node at %s not reachable: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestKillNineRecovery is the durability acceptance test from the issue:
// kill -9 a plsh-node mid-ingest, restart it with the same -data
// directory, and every insert that was acknowledged before the kill must
// be returned by Query. A clean SIGTERM restart is then verified to
// checkpoint (snapshot present, journal emptied) and recover identically.
func TestKillNineRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain unavailable")
	}
	bin := filepath.Join(t.TempDir(), "plsh-node")
	if out, err := exec.Command(goBin, "build", "-o", bin, "./cmd/plsh-node").CombinedOutput(); err != nil {
		t.Fatalf("build plsh-node: %v\n%s", err, out)
	}

	dataDir := t.TempDir()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	start := func() *exec.Cmd {
		cmd := exec.Command(bin,
			"-addr", addr, "-dim", "2000", "-k", "8", "-m", "6",
			"-capacity", "100000", "-seed", "42", "-data", dataDir)
		cmd.Stdout, cmd.Stderr = io.Discard, io.Discard
		if err := cmd.Start(); err != nil {
			t.Fatalf("start plsh-node: %v", err)
		}
		return cmd
	}

	proc := start()
	client := dialRetry(t, addr)
	docs := SyntheticTweets(2000, 2000, 77)
	const batch = 25
	acked := 0
	for ; acked < 750; acked += batch {
		if _, err := client.Insert(bg, docs[acked:acked+batch]); err != nil {
			t.Fatalf("insert at %d: %v", acked, err)
		}
	}
	// Keep ingesting from a goroutine and SIGKILL mid-stream, so the kill
	// lands with inserts genuinely in flight.
	var wg sync.WaitGroup
	var mu sync.Mutex
	wg.Add(1)
	go func() {
		defer wg.Done()
		for off := acked; off+batch <= len(docs); off += batch {
			if _, err := client.Insert(bg, docs[off:off+batch]); err != nil {
				return // the kill landed; this batch was never acknowledged
			}
			mu.Lock()
			acked = off + batch
			mu.Unlock()
		}
	}()
	time.Sleep(50 * time.Millisecond)
	proc.Process.Kill() // SIGKILL: no shutdown path runs
	proc.Wait()
	wg.Wait()
	client.Close()
	mu.Lock()
	ackedTotal := acked
	mu.Unlock()

	proc2 := start()
	client2 := dialRetry(t, addr)
	st, err := client2.Stats(bg)
	if err != nil {
		t.Fatal(err)
	}
	if total := st.StaticLen + st.DeltaLen; total < ackedTotal {
		t.Fatalf("recovered %d documents, %d were acknowledged before kill -9", total, ackedTotal)
	}
	// Every acknowledged insert is returned by Search (ids are sequential:
	// one node, one ordered client).
	step := 1
	if ackedTotal > 400 {
		step = ackedTotal / 400 // bound the wall time, still hundreds of probes
	}
	for i := 0; i < ackedTotal; i += step {
		res, err := client2.Search(bg, []Vector{docs[i]}, node.SearchParams{})
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, nb := range res[0] {
			if nb.ID == uint32(i) {
				found = true
			}
		}
		if !found {
			t.Fatalf("doc %d acknowledged before kill -9 but lost", i)
		}
	}
	client2.Close()

	// Clean shutdown checkpoints: SIGTERM, then verify the snapshot holds
	// everything and the journal was truncated to an empty live segment.
	if err := proc2.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	proc2.Wait()
	snap, err := persist.ReadSnapshot(dataDir)
	if err != nil {
		t.Fatalf("no valid snapshot after SIGTERM: %v", err)
	}
	if snap.Rows < ackedTotal {
		t.Fatalf("shutdown snapshot covers %d rows, want >= %d", snap.Rows, ackedTotal)
	}
	segs, err := filepath.Glob(filepath.Join(dataDir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range segs {
		if fi, err := os.Stat(seg); err != nil || fi.Size() != 0 {
			t.Fatalf("journal %s not truncated after shutdown checkpoint", seg)
		}
	}

	proc3 := start()
	defer func() {
		proc3.Process.Signal(syscall.SIGTERM)
		proc3.Wait()
	}()
	client3 := dialRetry(t, addr)
	defer client3.Close()
	st3, err := client3.Stats(bg)
	if err != nil {
		t.Fatal(err)
	}
	if st3.StaticLen != snap.Rows {
		t.Fatalf("snapshot boot: %d static rows, snapshot has %d", st3.StaticLen, snap.Rows)
	}
}
