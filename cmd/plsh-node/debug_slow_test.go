//go:build slow

package main

import (
	"context"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"plsh/internal/clustertest"
)

// TestDebugAddrServesPprof: a node started with -debug-addr answers
// /debug/pprof/ on that address with the profile index, serves nothing
// outside /debug/pprof/, and closes the listener when it shuts down.
//
//	go test -tags slow -run TestDebugAddrServesPprof ./cmd/plsh-node
func TestDebugAddrServesPprof(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	debugAddr := l.Addr().String()
	l.Close() // the node takes the port over
	fleet := clustertest.Start(t, 1, "-dim", "2000", "-k", "4", "-m", "4", "-capacity", "100", "-debug-addr", debugAddr)

	get := func(path string) (int, string) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+debugAddr+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}
	if code, body := get("/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("GET /debug/pprof/: %d, body without the profile index:\n%s", code, body)
	}
	if code, _ := get("/debug/pprof/goroutine?debug=1"); code != http.StatusOK {
		t.Fatalf("GET /debug/pprof/goroutine: %d", code)
	}
	if code, _ := get("/"); code != http.StatusNotFound {
		t.Fatalf("GET /: %d, want 404 — the debug listener serves pprof only", code)
	}

	if err := fleet.Nodes[0].Stop(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	if c, err := net.DialTimeout("tcp", debugAddr, time.Second); err == nil {
		c.Close()
		t.Fatal("the debug listener is still open after the node shut down")
	}
}
