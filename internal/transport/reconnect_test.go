package transport

import (
	"context"
	"errors"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"plsh/internal/node"
)

// killableServer is a node server whose process death is simulated by
// tearing down its listener and every open connection; restart re-listens
// on the same address over the same backend. open counts the connections
// the server holds.
type killableServer struct {
	t    *testing.T
	addr string
	back NodeClient
	stop context.CancelFunc
	done chan struct{}
	open atomic.Int64
}

func startKillableServer(t *testing.T, back NodeClient) *killableServer {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &killableServer{t: t, addr: l.Addr().String(), back: back}
	s.serve(l)
	t.Cleanup(func() { s.stop() })
	return s
}

func (s *killableServer) serve(l net.Listener) {
	ctx, cancel := context.WithCancel(context.Background())
	s.stop = cancel
	done := make(chan struct{})
	s.done = done
	go func() {
		defer close(done)
		Serve(ctx, countingListener{l, &s.open}, s.back, nil)
	}()
}

// kill closes the listener and every connection, and waits until the
// server has fully drained — the in-process stand-in for SIGKILL.
func (s *killableServer) kill() {
	s.stop()
	<-s.done
}

// restart re-listens on the same address.
func (s *killableServer) restart() {
	s.t.Helper()
	var l net.Listener
	var err error
	// The old listener's port can linger briefly after close; retry.
	for deadline := time.Now().Add(5 * time.Second); ; {
		l, err = net.Listen("tcp", s.addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			s.t.Fatalf("re-listen on %s: %v", s.addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	s.serve(l)
}

// countingListener counts the connections it accepted that the server has
// not yet closed.
type countingListener struct {
	net.Listener
	open *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.open.Add(1)
	return &countedConn{Conn: c, open: l.open}, nil
}

type countedConn struct {
	net.Conn
	open *atomic.Int64
	once sync.Once
}

func (c *countedConn) Close() error {
	c.once.Do(func() { c.open.Add(-1) })
	return c.Conn.Close()
}

// current reads the client's installed connection.
func current(c *Client) *conn {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cur
}

// waitBroken waits until the client's installed connection has seen its
// server die.
func waitBroken(t *testing.T, c *Client) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !current(c).broken(); {
		if time.Now().After(deadline) {
			t.Fatal("the connection never noticed its server died")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRedialReconnectsAfterServerRestart: a client fails while its node is
// down, then heals itself once the node is back — the property that lets
// a crashed replica rejoin a cluster without rebuilding the coordinator.
func TestRedialReconnectsAfterServerRestart(t *testing.T) {
	n := testNode(t, 1000)
	srv := startKillableServer(t, NewLocal(n))
	c, err := Dial(bg, srv.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	docs := testDocs(100, 5)
	if _, err := c.Insert(bg, docs); err != nil {
		t.Fatal(err)
	}
	before, err := c.Search(bg, docs[:4], node.SearchParams{})
	if err != nil {
		t.Fatal(err)
	}

	srv.kill()
	// Down: calls fail (the client does not retry within a call)...
	if _, err := c.Stats(bg); err == nil {
		t.Fatal("Stats succeeded against a dead server")
	}

	srv.restart()
	// ...but once the server is back, the next call re-dials and the
	// answers are exactly what the node held before (the backend survived;
	// in a real deployment the journal replay restores it).
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := c.Stats(bg); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the client never healed after restart")
		}
		time.Sleep(10 * time.Millisecond)
	}
	res, err := c.Search(bg, docs[:4], node.SearchParams{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, before) {
		t.Fatal("answers differ across the restart")
	}

	// Close is terminal: no further dial is attempted.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stats(bg); !errors.Is(err, errClosed) {
		t.Fatalf("closed client answered a call: %v", err)
	}
}

// TestConcurrentRedialsInstallOne: eight callers hammer a client across a
// kill and restart of its server. Every call begun after the restart
// succeeds, and once they settle the server holds exactly one connection
// from the client — callers that lost the race to install their fresh
// connection closed it.
func TestConcurrentRedialsInstallOne(t *testing.T) {
	srv := startKillableServer(t, NewLocal(testNode(t, 100)))
	c, err := Dial(bg, srv.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var restarted, stop atomic.Bool
	var okAfter atomic.Int64
	errs := make(chan error, 8)
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				after := restarted.Load()
				_, err := c.Stats(bg)
				switch {
				case err == nil && after:
					okAfter.Add(1)
				case err != nil && after:
					errs <- err
					return
				}
				time.Sleep(time.Millisecond)
			}
		}()
	}

	srv.kill()
	waitBroken(t, c)
	srv.restart()
	restarted.Store(true)
	for deadline := time.Now().Add(10 * time.Second); okAfter.Load() < 200; {
		if time.Now().After(deadline) || len(errs) > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("a call begun after the restart failed: %v", err)
	}
	if okAfter.Load() < 200 {
		t.Fatalf("only %d calls succeeded after the restart", okAfter.Load())
	}
	// The losers' closes reach the server asynchronously.
	for deadline := time.Now().Add(5 * time.Second); srv.open.Load() != 1; {
		if time.Now().After(deadline) {
			t.Fatalf("server holds %d connections from one client, want 1", srv.open.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCallDoesNotWaitOnAnotherCallsDial: while one call's dial hangs, a
// second call bounded by a short deadline returns context.DeadlineExceeded
// on time — its own ctx bounds its own dial, and no lock it needs is held
// across the first.
func TestCallDoesNotWaitOnAnotherCallsDial(t *testing.T) {
	srv := startKillableServer(t, NewLocal(testNode(t, 100)))
	c, err := Dial(bg, srv.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv.kill()
	waitBroken(t, c)

	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	c.dialer.ControlContext = func(ctx context.Context, _, _ string, _ syscall.RawConn) error {
		select {
		case entered <- struct{}{}:
		default:
		}
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	first := make(chan error, 1)
	go func() {
		_, err := c.Stats(bg)
		first <- err
	}()
	<-entered // the first call's dial is hanging

	ctx, cancel := context.WithTimeout(bg, 20*time.Millisecond)
	defer cancel()
	second := make(chan error, 1)
	go func() {
		_, err := c.Stats(ctx)
		second <- err
	}()
	select {
	case err := <-second:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("want context.DeadlineExceeded, got %v", err)
		}
	case <-time.After(time.Second):
		close(release)
		t.Fatal("the deadline-bound call waited on the other call's dial")
	}

	srv.restart()
	close(release)
	if err := <-first; err != nil {
		t.Fatalf("the released dial's call failed: %v", err)
	}
	if _, err := c.Stats(bg); err != nil {
		t.Fatal(err)
	}
}
