package transport

import (
	"context"
	"net"
	"reflect"
	"testing"
	"time"

	"plsh/internal/node"
)

// killableServer is a node server whose process death is simulated by
// tearing down its listener and every open connection; restart re-listens
// on the same address over the same backend.
type killableServer struct {
	t    *testing.T
	addr string
	back NodeClient
	stop context.CancelFunc
	done chan struct{}
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
		Serve(ctx, l, s.back, nil)
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

// TestRedialReconnectsAfterServerRestart: a Redial client fails while its
// node is down, then heals itself once the node is back — the property
// that lets a crashed replica rejoin a cluster without rebuilding the
// coordinator.
func TestRedialReconnectsAfterServerRestart(t *testing.T) {
	n := testNode(t, 1000)
	srv := startKillableServer(t, NewLocal(n))
	r, err := NewRedial(bg, srv.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	docs := testDocs(100, 5)
	if _, err := r.Insert(bg, docs); err != nil {
		t.Fatal(err)
	}
	before, err := r.Search(bg, docs[:4], node.SearchParams{})
	if err != nil {
		t.Fatal(err)
	}

	srv.kill()
	// Down: calls fail (Redial does not retry within a call)...
	if _, err := r.Stats(bg); err == nil {
		t.Fatal("Stats succeeded against a dead server")
	}

	srv.restart()
	// ...but once the server is back, the next call re-dials and the
	// answers are exactly what the node held before (the backend survived;
	// in a real deployment the journal replay restores it).
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := r.Stats(bg); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Redial never healed after restart")
		}
		time.Sleep(10 * time.Millisecond)
	}
	res, err := r.Search(bg, docs[:4], node.SearchParams{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, before) {
		t.Fatal("answers differ across the restart")
	}

	// Close is terminal: no further dial is attempted.
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Stats(bg); err == nil {
		t.Fatal("closed Redial answered a call")
	}
}
