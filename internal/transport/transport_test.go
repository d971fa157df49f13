package transport

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"plsh/internal/core"
	"plsh/internal/corpus"
	"plsh/internal/lshhash"
	"plsh/internal/node"
	"plsh/internal/persist"
	"plsh/internal/sparse"
)

var bg = context.Background()

func testNode(t *testing.T, capacity int) *node.Node {
	t.Helper()
	n, err := node.Open(context.Background(), node.Config{
		Params:   lshhash.Params{Dim: 2000, K: 8, M: 6, Seed: 42},
		Capacity: capacity,
		Build:    core.Defaults(),
		Query:    core.QueryDefaults(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func testDocs(n int, seed uint64) []sparse.Vector {
	c := corpus.Generate(corpus.Twitter(n, 2000, seed))
	out := make([]sparse.Vector, n)
	for i := 0; i < n; i++ {
		out[i] = c.Mat.Row(i)
	}
	return out
}

// startBackend serves backend on an ephemeral port, returning its address
// and a shutdown func that cancels the server context.
func startBackend(t *testing.T, backend NodeClient, onError func(error)) (string, context.CancelFunc) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(bg)
	t.Cleanup(cancel)
	go Serve(ctx, l, backend, onError)
	return l.Addr().String(), cancel
}

func startServer(t *testing.T, n *node.Node) (string, context.CancelFunc) {
	t.Helper()
	return startBackend(t, NewLocal(n), nil)
}

// rawPeer speaks the wire by hand over one connection, frame by frame, as
// a client of this revision does — but lets a test send any frame, and
// read each answer as it comes.
type rawPeer struct {
	conn     net.Conn
	r        *bufio.Reader
	answered bool // the server's preamble has been read
}

// dialRaw opens a connection to addr and sends the preamble.
func dialRaw(t *testing.T, addr string) *rawPeer {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if _, err := conn.Write(appendPreamble(nil)); err != nil {
		t.Fatal(err)
	}
	return &rawPeer{conn: conn, r: bufio.NewReader(conn)}
}

func (p *rawPeer) send(t *testing.T, req *request) {
	t.Helper()
	if _, err := p.conn.Write(appendRequest(nil, req)); err != nil {
		t.Fatal(err)
	}
}

// recv reads one response frame — the first preceded by the server's
// preamble — waiting at most 10 s.
func (p *rawPeer) recv() (*response, error) {
	if err := p.conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		return nil, err
	}
	if !p.answered {
		if err := readPreamble(p.r); err != nil {
			return nil, err
		}
		p.answered = true
	}
	payload, err := readFrame(p.r, nil)
	if err != nil {
		return nil, err
	}
	return decodeResponse(payload)
}

// stubBackend implements NodeClient with overridable behavior per method;
// unset methods answer successfully with zero values.
type stubBackend struct {
	insert func(ctx context.Context, vs []sparse.Vector) ([]uint32, error)
	search func(ctx context.Context, qs []sparse.Vector) ([][]core.Neighbor, error)
	stats  func(ctx context.Context) (node.Stats, error)
}

func (s *stubBackend) Insert(ctx context.Context, vs []sparse.Vector) ([]uint32, error) {
	if s.insert != nil {
		return s.insert(ctx, vs)
	}
	return make([]uint32, len(vs)), nil
}

func (s *stubBackend) Search(ctx context.Context, qs []sparse.Vector, p node.SearchParams) ([][]core.Neighbor, error) {
	if s.search != nil {
		return s.search(ctx, qs)
	}
	return make([][]core.Neighbor, len(qs)), nil
}

func (s *stubBackend) Doc(ctx context.Context, id uint32) (sparse.Vector, bool, error) {
	return sparse.Vector{}, false, nil
}
func (s *stubBackend) Delete(ctx context.Context, id uint32) error { return nil }
func (s *stubBackend) MergeNow(ctx context.Context) error          { return nil }
func (s *stubBackend) Flush(ctx context.Context) error             { return nil }
func (s *stubBackend) Retire(ctx context.Context) error            { return nil }
func (s *stubBackend) Save(ctx context.Context) error              { return nil }
func (s *stubBackend) Stats(ctx context.Context) (node.Stats, error) {
	if s.stats != nil {
		return s.stats(ctx)
	}
	return node.Stats{}, nil
}
func (s *stubBackend) Close() error { return nil }

func TestLocalRoundTrip(t *testing.T) {
	n := testNode(t, 500)
	var client NodeClient = NewLocal(n)
	vs := testDocs(100, 1)
	ids, err := client.Insert(bg, vs)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 100 {
		t.Fatalf("ids = %d", len(ids))
	}
	res, err := client.Search(bg, vs[:5], node.SearchParams{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res[:5] {
		found := false
		for _, nb := range res[i] {
			if nb.ID == uint32(i) {
				found = true
			}
		}
		if !found {
			t.Fatalf("doc %d not found via Local client", i)
		}
	}
	st, err := client.Stats(bg)
	if err != nil || st.StaticLen+st.DeltaLen != 100 {
		t.Fatalf("stats: %+v err=%v", st, err)
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTCPMatchesLocal runs the same operations against a Local client and
// a TCP client backed by identical nodes, asserting identical answers —
// the wire layer must be semantically invisible.
func TestTCPMatchesLocal(t *testing.T) {
	nLocal := testNode(t, 500)
	nRemote := testNode(t, 500)
	addr, _ := startServer(t, nRemote)

	remote, err := Dial(bg, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	local := NewLocal(nLocal)

	vs := testDocs(200, 3)
	queries := testDocs(15, 9)

	idsL, err := local.Insert(bg, vs)
	if err != nil {
		t.Fatal(err)
	}
	idsR, err := remote.Insert(bg, vs)
	if err != nil {
		t.Fatal(err)
	}
	if len(idsL) != len(idsR) {
		t.Fatalf("id counts differ: %d vs %d", len(idsL), len(idsR))
	}
	for i := range idsL {
		if idsL[i] != idsR[i] {
			t.Fatalf("id %d differs: %d vs %d", i, idsL[i], idsR[i])
		}
	}

	resL, _ := local.Search(bg, queries, node.SearchParams{})
	resR, err := remote.Search(bg, queries, node.SearchParams{})
	if err != nil {
		t.Fatal(err)
	}
	for qi := range queries {
		a := append([]core.Neighbor(nil), resL[qi]...)
		b := append([]core.Neighbor(nil), resR[qi]...)
		core.SortNeighbors(a)
		core.SortNeighbors(b)
		if len(a) != len(b) {
			t.Fatalf("query %d: %d vs %d results", qi, len(a), len(b))
		}
		for i := range a {
			if a[i].ID != b[i].ID {
				t.Fatalf("query %d result %d differs", qi, i)
			}
		}
	}

	// Top-K answers must match across transports too.
	for qi, q := range queries {
		ra, err := local.Search(bg, []sparse.Vector{q}, node.SearchParams{K: 5})
		if err != nil {
			t.Fatal(err)
		}
		rb, err := remote.Search(bg, []sparse.Vector{q}, node.SearchParams{K: 5})
		if err != nil {
			t.Fatal(err)
		}
		a, b := ra[0], rb[0]
		if len(a) != len(b) {
			t.Fatalf("top-k query %d: %d vs %d results", qi, len(a), len(b))
		}
		for i := range a {
			if a[i].ID != b[i].ID {
				t.Fatalf("top-k query %d result %d differs", qi, i)
			}
		}
	}

	// Delete + merge + retire propagate.
	if err := remote.Delete(bg, idsR[0]); err != nil {
		t.Fatal(err)
	}
	if err := remote.MergeNow(bg); err != nil {
		t.Fatal(err)
	}
	st, err := remote.Stats(bg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Deleted != 1 || st.DeltaLen != 0 {
		t.Fatalf("remote stats after delete+merge: %+v", st)
	}
	if err := remote.Retire(bg); err != nil {
		t.Fatal(err)
	}
	st, _ = remote.Stats(bg)
	if st.StaticLen != 0 {
		t.Fatalf("remote retire did not empty node: %+v", st)
	}
}

// ErrFull must survive the trip through the multiplexed protocol as a
// matchable sentinel.
func TestTCPErrFullSentinel(t *testing.T) {
	n := testNode(t, 50)
	addr, _ := startServer(t, n)
	client, err := Dial(bg, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	vs := testDocs(80, 5)
	if _, err := client.Insert(bg, vs[:50]); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Insert(bg, vs[50:]); !errors.Is(err, node.ErrFull) {
		t.Fatalf("want ErrFull across the wire, got %v", err)
	}
}

func TestClientClosedErrors(t *testing.T) {
	n := testNode(t, 50)
	addr, _ := startServer(t, n)
	client, err := Dial(bg, addr)
	if err != nil {
		t.Fatal(err)
	}
	client.Close()
	if _, err := client.Stats(bg); err == nil {
		t.Fatal("closed client accepted a call")
	}
	if err := client.Close(); err != nil {
		t.Fatal("double Close errored")
	}
}

func TestConcurrentClients(t *testing.T) {
	n := testNode(t, 1000)
	vs := testDocs(200, 7)
	if _, err := NewLocal(n).Insert(bg, vs); err != nil {
		t.Fatal(err)
	}
	addr, _ := startServer(t, n)

	const clients = 4
	errCh := make(chan error, clients)
	for g := 0; g < clients; g++ {
		go func() {
			c, err := Dial(bg, addr)
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			for rep := 0; rep < 10; rep++ {
				if _, err := c.Search(bg, vs[:3], node.SearchParams{}); err != nil {
					errCh <- err
					return
				}
			}
			errCh <- nil
		}()
	}
	for g := 0; g < clients; g++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrentInFlightSingleConn proves the protocol multiplexes: the
// backend blocks every Search until `lanes` of them have arrived, so
// the test completes only if all `lanes` RPCs are simultaneously in flight
// on ONE connection. A serial one-request-at-a-time protocol deadlocks
// here (and trips the watchdog).
func TestConcurrentInFlightSingleConn(t *testing.T) {
	const lanes = 8
	var (
		mu      sync.Mutex
		arrived int
		release = make(chan struct{})
	)
	backend := &stubBackend{
		search: func(ctx context.Context, qs []sparse.Vector) ([][]core.Neighbor, error) {
			mu.Lock()
			arrived++
			if arrived == lanes {
				close(release)
			}
			mu.Unlock()
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			// Echo the lane tag (the query's first index) so the client can
			// verify responses were dispatched to the right caller.
			return [][]core.Neighbor{{{ID: qs[0].Idx[0], Dist: 0}}}, nil
		},
	}
	addr, _ := startBackend(t, backend, nil)
	client, err := Dial(bg, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ctx, cancel := context.WithTimeout(bg, 30*time.Second) // watchdog, not a pacing device
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, lanes)
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			q := sparse.Vector{Idx: []uint32{uint32(lane)}, Val: []float32{1}}
			res, err := client.Search(ctx, []sparse.Vector{q}, node.SearchParams{})
			if err != nil {
				errs[lane] = err
				return
			}
			if len(res) != 1 || len(res[0]) != 1 || res[0][0].ID != uint32(lane) {
				errs[lane] = errors.New("response misrouted")
			}
		}(lane)
	}
	wg.Wait()
	for lane, err := range errs {
		if err != nil {
			t.Fatalf("lane %d: %v", lane, err)
		}
	}
}

// TestServerShutdownMidRequest: canceling the server context while a
// request is being handled must fail the client call with an error — not
// leave it hanging.
func TestServerShutdownMidRequest(t *testing.T) {
	started := make(chan struct{}, 1)
	backend := &stubBackend{
		search: func(ctx context.Context, qs []sparse.Vector) ([][]core.Neighbor, error) {
			started <- struct{}{}
			<-ctx.Done() // block until shutdown
			return nil, ctx.Err()
		},
	}
	addr, shutdown := startBackend(t, backend, nil)
	client, err := Dial(bg, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	done := make(chan error, 1)
	go func() {
		_, err := client.Search(bg, testDocs(1, 3), node.SearchParams{})
		done <- err
	}()
	<-started
	shutdown()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("call succeeded through a server shutdown")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("call hung across server shutdown")
	}
}

// TestCanceledCallReturnsEarly: a client-side cancellation must abort the
// waiting call with ctx.Err() even though the server never responds.
func TestCanceledCallReturnsEarly(t *testing.T) {
	backend := &stubBackend{
		search: func(ctx context.Context, qs []sparse.Vector) ([][]core.Neighbor, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		},
	}
	addr, _ := startBackend(t, backend, nil)
	client, err := Dial(bg, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ctx, cancel := context.WithCancel(bg)
	done := make(chan error, 1)
	go func() {
		_, err := client.Search(ctx, testDocs(1, 5), node.SearchParams{})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled call did not return")
	}

	// The connection survives a canceled call: subsequent RPCs work.
	st, err := client.Stats(bg)
	if err != nil {
		t.Fatalf("call after cancellation failed: %v (stats %+v)", err, st)
	}
}

// TestCancelPropagatesToServer: abandoning a call client-side must abort
// the backend work server-side (via the cancel frame / carried deadline),
// not just stop the client from waiting.
func TestCancelPropagatesToServer(t *testing.T) {
	aborted := make(chan struct{}, 1)
	backend := &stubBackend{
		search: func(ctx context.Context, qs []sparse.Vector) ([][]core.Neighbor, error) {
			<-ctx.Done()
			select {
			case aborted <- struct{}{}:
			default:
			}
			return nil, ctx.Err()
		},
	}
	addr, _ := startBackend(t, backend, nil)
	client, err := Dial(bg, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ctx, cancel := context.WithCancel(bg)
	done := make(chan error, 1)
	go func() {
		_, err := client.Search(ctx, testDocs(1, 7), node.SearchParams{})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("client call: %v", err)
	}
	// The server's handler must observe the abort without the server
	// itself shutting down.
	select {
	case <-aborted:
	case <-time.After(10 * time.Second):
		t.Fatal("server-side work kept running after client cancellation")
	}
}

// TestClientDisconnectAbortsServerWork: when the client connection drops
// entirely, the server abandons the in-flight backend work instead of
// computing answers nobody will read.
func TestClientDisconnectAbortsServerWork(t *testing.T) {
	aborted := make(chan struct{}, 1)
	started := make(chan struct{}, 1)
	backend := &stubBackend{
		search: func(ctx context.Context, qs []sparse.Vector) ([][]core.Neighbor, error) {
			started <- struct{}{}
			<-ctx.Done()
			select {
			case aborted <- struct{}{}:
			default:
			}
			return nil, ctx.Err()
		},
	}
	addr, _ := startBackend(t, backend, nil)
	client, err := Dial(bg, addr)
	if err != nil {
		t.Fatal(err)
	}
	go client.Search(bg, testDocs(1, 11), node.SearchParams{}) // fails when the client closes
	<-started
	client.Close()
	select {
	case <-aborted:
	case <-time.After(10 * time.Second):
		t.Fatal("server-side work kept running after the client disconnected")
	}
}

// TestDeadlinePropagatesToServer: the request carries the caller's
// deadline, so server-side work is bounded even without a cancel frame.
func TestDeadlinePropagatesToServer(t *testing.T) {
	sawDeadline := make(chan bool, 1)
	backend := &stubBackend{
		search: func(ctx context.Context, qs []sparse.Vector) ([][]core.Neighbor, error) {
			_, ok := ctx.Deadline()
			select {
			case sawDeadline <- ok:
			default:
			}
			return make([][]core.Neighbor, len(qs)), nil
		},
	}
	addr, _ := startBackend(t, backend, nil)
	client, err := Dial(bg, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ctx, cancel := context.WithTimeout(bg, 30*time.Second)
	defer cancel()
	if _, err := client.Search(ctx, testDocs(1, 9), node.SearchParams{}); err != nil {
		t.Fatal(err)
	}
	if ok := <-sawDeadline; !ok {
		t.Fatal("caller deadline did not reach the server-side context")
	}
}

// pastDeadlineCtx reports a deadline that has passed while its Done channel
// never fires — the window in which the server, holding the same deadline,
// notices the expiry before the caller's own timer does.
type pastDeadlineCtx struct{ context.Context }

func (pastDeadlineCtx) Deadline() (time.Time, bool) { return time.Now().Add(-time.Second), true }

// TestServerSideExpiryIsDeadlineExceeded: when the server observes the
// caller's deadline first and answers with its own expiry, the call still
// reports context.DeadlineExceeded, not an opaque remote error string.
func TestServerSideExpiryIsDeadlineExceeded(t *testing.T) {
	backend := &stubBackend{
		search: func(ctx context.Context, qs []sparse.Vector) ([][]core.Neighbor, error) {
			<-ctx.Done() // expired on arrival: the frame carried a past deadline
			return nil, ctx.Err()
		},
	}
	addr, _ := startBackend(t, backend, nil)
	client, err := Dial(bg, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	_, err = client.Search(pastDeadlineCtx{bg}, testDocs(1, 9), node.SearchParams{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("server-side expiry surfaced as %v, want context.DeadlineExceeded", err)
	}
}

// TestDecodeErrorSurfaced: bytes that are not this binary's preamble, and
// a frame that does not decode after a good one, reach the server's error
// callback — as ErrPreamble and as a malformed frame — instead of silently
// dropping the connection.
func TestDecodeErrorSurfaced(t *testing.T) {
	errCh := make(chan error, 1)
	addr, _ := startBackend(t, &stubBackend{}, func(err error) {
		select {
		case errCh <- err:
		default:
		}
	})
	surfaced := func(want error) {
		t.Helper()
		select {
		case err := <-errCh:
			if !errors.Is(err, want) {
				t.Fatalf("surfaced %v, want %v", err, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%v never surfaced", want)
		}
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("this is not a plsh stream")); err != nil {
		t.Fatal(err)
	}
	surfaced(ErrPreamble)

	p := dialRaw(t, addr)
	frame := appendRequest(nil, &request{Seq: 1, Op: opDelete, ID: 7})
	frame = append(frame, 0xff) // a trailing byte, counted in the length
	binary.LittleEndian.PutUint32(frame, uint32(len(frame)-4))
	if _, err := p.conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	surfaced(errFrame)
	if _, err := p.recv(); err != io.EOF {
		t.Fatalf("after a malformed frame the connection answered %v, want it closed", err)
	}
}

// TestRetiredOpsAnswerTypedError: the pinned frames of the retired opcodes
// 2 and 3 — what a pre-retirement client sends — each get a codeError
// response naming an unknown op over real TCP, and the same connection
// then serves an opSearch: the server neither panics nor hangs up.
func TestRetiredOpsAnswerTypedError(t *testing.T) {
	n := testNode(t, 100)
	docs := testDocs(20, 13)
	if _, err := n.Insert(bg, docs); err != nil {
		t.Fatal(err)
	}
	addr, _ := startServer(t, n)
	p := dialRaw(t, addr)
	retired := 0
	for _, g := range goldenRequests() {
		if g.frame.Op != 2 && g.frame.Op != 3 {
			continue
		}
		retired++
		p.send(t, &g.frame)
		resp, err := p.recv()
		if err != nil {
			t.Fatalf("%s: no response frame (connection dropped?): %v", g.name, err)
		}
		if resp.Seq != g.frame.Seq || resp.Code != codeError || !strings.Contains(resp.Err, "unknown op") {
			t.Fatalf("%s: response %+v, want codeError naming an unknown op", g.name, resp)
		}
		if resp.Results != nil {
			t.Fatalf("%s: retired op carried an answer: %+v", g.name, resp)
		}
	}
	if retired != 2 {
		t.Fatalf("golden frames carry %d retired ops, want 2", retired)
	}
	p.send(t, &request{Seq: 99, Op: opSearch, Vectors: docs[:1]})
	resp, err := p.recv()
	if err != nil {
		t.Fatalf("search after retired ops: %v", err)
	}
	if resp.Seq != 99 || resp.Code != codeOK || len(resp.Results) != 1 {
		t.Fatalf("search after retired ops: %+v", resp)
	}
	if len(resp.Results[0]) == 0 || resp.Results[0][0].ID != 0 {
		t.Fatalf("search after retired ops lost doc 0's self-match: %+v", resp.Results[0])
	}
}

// TestMalformedVectorsAnswerError: a search or insert frame whose vector
// names a column past the node's dimension, or carries more indexes than
// values, gets a codeError response over real TCP — hashing it would index
// out of range and, in a handler goroutine, take the process down — and
// the same connection then serves the next request.
func TestMalformedVectorsAnswerError(t *testing.T) {
	n := testNode(t, 100)
	docs := testDocs(20, 13)
	if _, err := n.Insert(bg, docs); err != nil {
		t.Fatal(err)
	}
	addr, _ := startServer(t, n)
	p := dialRaw(t, addr)
	outside := sparse.Vector{Idx: []uint32{1, 2500}, Val: []float32{0.6, 0.8}} // Dim is 2000
	ragged := sparse.Vector{Idx: []uint32{1, 2, 3}, Val: []float32{1}}
	seq := uint64(0)
	for _, bad := range []sparse.Vector{outside, ragged} {
		for _, req := range []request{
			{Op: opSearch, Vectors: []sparse.Vector{docs[0], bad}},
			{Op: opInsert, Vectors: []sparse.Vector{docs[0], bad}},
		} {
			seq++
			req.Seq = seq
			p.send(t, &req)
			resp, err := p.recv()
			if err != nil {
				t.Fatalf("op %d with %v: no response frame (server died?): %v", req.Op, bad, err)
			}
			if resp.Seq != seq || resp.Code != codeError || !strings.Contains(resp.Err, sparse.ErrInvalid.Error()) {
				t.Fatalf("op %d with %v: response %+v, want codeError wrapping %q", req.Op, bad, resp, sparse.ErrInvalid)
			}
		}
	}
	if got := n.Len(); got != len(docs) {
		t.Fatalf("a refused insert batch left %d documents, want %d", got, len(docs))
	}
	p.send(t, &request{Seq: 99, Op: opSearch, Vectors: docs[:1]})
	resp, err := p.recv()
	if err != nil {
		t.Fatalf("search after malformed frames: %v", err)
	}
	if resp.Seq != 99 || resp.Code != codeOK || len(resp.Results) != 1 || len(resp.Results[0]) == 0 {
		t.Fatalf("search after malformed frames: %+v", resp)
	}
}

// replayConn reads r, which replays bytes already read from Conn.
type replayConn struct {
	net.Conn
	r io.Reader
}

func (c *replayConn) Read(p []byte) (int, error) { return c.r.Read(p) }

// TestCanceledQueuedSearchLeavesQueryAlone: a Search whose caller gives up
// while its frame still sits in the write queue — the writer is stalled
// behind a frame the server is not reading — returns at once, never
// writes the caller's vectors, and leaves the connection serving: the
// queued frame goes out when the stall ends, and later calls are answered.
// The frame is the call's own value, so there is nothing for the abandoned
// call and the writer to hand back and forth.
func TestCanceledQueuedSearchLeavesQueryAlone(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	sctx, stop := context.WithCancel(bg)
	release := make(chan struct{})
	writing := make(chan struct{})
	served := make(chan struct{})
	go func() {
		defer close(served)
		conn, err := l.Accept()
		if err != nil {
			return
		}
		// The preamble and the first frame's length prefix: once they are
		// here, the writer has encoded the big frame and is writing it.
		head := make([]byte, preambleLen+4)
		if _, err := io.ReadFull(conn, head); err != nil {
			conn.Close()
			return
		}
		close(writing)
		select {
		case <-release: // until then nobody reads: the client's writer fills the socket and blocks
			serveConn(sctx, sctx, &replayConn{conn, io.MultiReader(bytes.NewReader(head), conn)}, &stubBackend{}, nil)
		case <-sctx.Done():
			conn.Close()
		}
	}()
	defer func() { stop(); <-served }()
	client, err := Dial(bg, l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	cn := current(client)

	// One frame larger than the loopback socket buffers, handed straight
	// to the writer, stalls it mid-write; its answer will match no pending
	// call and be dropped.
	big := sparse.Vector{Idx: make([]uint32, 1<<21), Val: make([]float32, 1<<21)}
	for i := range big.Idx {
		big.Idx[i], big.Val[i] = uint32(i), float32(i)
	}
	cn.writeCh <- &request{Seq: 1 << 40, Op: opSearch, Vectors: []sparse.Vector{big}}
	waitQueue := func(n int) {
		t.Helper()
		for deadline := time.Now().Add(30 * time.Second); len(cn.writeCh) != n; {
			if time.Now().After(deadline) {
				t.Fatalf("write queue holds %d frames, want %d", len(cn.writeCh), n)
			}
			time.Sleep(time.Millisecond)
		}
	}
	<-writing

	qs := testDocs(3, 5)
	want := make([]sparse.Vector, len(qs))
	for i := range qs {
		want[i] = qs[i].Clone()
	}
	ctx, cancel := context.WithCancel(bg)
	done := make(chan error, 1)
	go func() {
		_, err := client.Search(ctx, qs, node.SearchParams{K: 3})
		done <- err
	}()
	waitQueue(1)
	time.Sleep(50 * time.Millisecond)
	if len(cn.writeCh) != 1 {
		t.Fatal("the writer drained the queue; the big frame did not stall it")
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled call did not return while its frame was queued")
	}
	if !reflect.DeepEqual(qs, want) {
		t.Fatal("the canceled call's query vectors were modified")
	}

	close(release)
	if _, err := client.Stats(bg); err != nil {
		t.Fatalf("call after the canceled one failed: %v", err)
	}
	if cn.broken() || current(client) != cn {
		t.Fatal("connection broken after a canceled queued call")
	}
	if !reflect.DeepEqual(qs, want) {
		t.Fatal("the canceled call's query vectors were modified after its frame was sent")
	}
}

// Flush and MergeNow cross the wire: a remote MergeNow leaves the node
// fully static, and a remote Flush settles the background auto-merges a
// burst of inserts triggered.
func TestTCPMergeAndFlush(t *testing.T) {
	n := testNode(t, 2000)
	addr, _ := startServer(t, n)
	remote, err := Dial(bg, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	if _, err := remote.Insert(bg, testDocs(300, 13)); err != nil {
		t.Fatal(err)
	}
	if err := remote.Flush(bg); err != nil {
		t.Fatal(err)
	}
	st, err := remote.Stats(bg)
	if err != nil {
		t.Fatal(err)
	}
	if st.MergeInFlight {
		t.Fatalf("Flush returned with a merge in flight: %+v", st)
	}
	if err := remote.MergeNow(bg); err != nil {
		t.Fatal(err)
	}
	if st, err = remote.Stats(bg); err != nil || st.DeltaLen != 0 || st.StaticLen != 300 {
		t.Fatalf("post-merge stats: %+v err=%v", st, err)
	}
}

// TestTCPSaveAndNotFound exercises the two newest wire codes end to end:
// opSave checkpoints a durable backend's data directory, and a delete of
// a never-inserted id comes back as node.ErrNotFound (codeNotFound), not
// a generic remote error.
func TestTCPSaveAndNotFound(t *testing.T) {
	dir := t.TempDir()
	n, err := node.Open(context.Background(), node.Config{
		Params:   lshhash.Params{Dim: 2000, K: 8, M: 6, Seed: 42},
		Capacity: 500,
		Build:    core.Defaults(),
		Query:    core.QueryDefaults(),
		Dir:      dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	addr, _ := startBackend(t, NewLocal(n), nil)
	remote, err := Dial(bg, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	ids, err := remote.Insert(bg, testDocs(40, 17))
	if err != nil {
		t.Fatal(err)
	}
	if err := remote.Delete(bg, ids[0]); err != nil {
		t.Fatalf("valid delete over TCP: %v", err)
	}
	if err := remote.Delete(bg, 40); !errors.Is(err, node.ErrNotFound) {
		t.Fatalf("out-of-range delete over TCP: want ErrNotFound, got %v", err)
	}
	if err := remote.Save(bg); err != nil {
		t.Fatalf("Save over TCP: %v", err)
	}
	if _, err := persist.ReadSnapshot(dir); err != nil {
		t.Fatalf("no valid snapshot after remote Save: %v", err)
	}

	// An in-memory backend refuses the checkpoint with a remote error.
	mem := testNode(t, 100)
	addr2, _ := startBackend(t, NewLocal(mem), nil)
	remote2, err := Dial(bg, addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer remote2.Close()
	if err := remote2.Save(bg); err == nil {
		t.Fatal("Save on in-memory node succeeded over TCP")
	}
}

// TestDuplicateInFlightSeqRefused: a frame whose Seq is already in flight
// on its connection is answered with an error and not run, so the first
// request keeps its own cancel: a cancel frame for that Seq, and a
// disconnect, each still abort it.
func TestDuplicateInFlightSeqRefused(t *testing.T) {
	started := make(chan struct{}, 4)
	aborted := make(chan struct{}, 4)
	backend := &stubBackend{
		search: func(ctx context.Context, qs []sparse.Vector) ([][]core.Neighbor, error) {
			started <- struct{}{}
			<-ctx.Done()
			aborted <- struct{}{}
			return nil, ctx.Err()
		},
	}
	addr, _ := startBackend(t, backend, nil)
	wait := func(ch chan struct{}, what string) {
		t.Helper()
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			t.Fatalf("the first request never %s", what)
		}
	}
	q := []sparse.Vector{{Idx: []uint32{1}, Val: []float32{1}}}
	for _, end := range []string{"cancel frame", "disconnect"} {
		p := dialRaw(t, addr)
		p.send(t, &request{Seq: 7, Op: opSearch, Vectors: q})
		wait(started, "started")
		p.send(t, &request{Seq: 7, Op: opSearch, Vectors: q})
		resp, err := p.recv()
		if err != nil {
			t.Fatalf("%s: the duplicate got no answer: %v", end, err)
		}
		if resp.Seq != 7 || resp.Code != codeError || !strings.Contains(resp.Err, "in flight") {
			t.Fatalf("%s: the duplicate was answered %+v, want codeError naming it in flight", end, resp)
		}
		if len(started) != 0 {
			t.Fatalf("%s: the duplicate ran", end)
		}
		if end == "cancel frame" {
			p.send(t, &request{Seq: 7, Op: opCancel})
		} else {
			p.conn.Close()
		}
		wait(aborted, "aborted")
	}
}
