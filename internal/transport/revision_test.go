package transport_test

// The test in this file speaks to the wire as peers of other revisions do:
// by hand, through preambles declaring other revisions, a gob stream like
// the one binaries before the binary codec sent, and frames of this
// revision written and read one at a time.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"plsh/internal/cluster"
	"plsh/internal/core"
	"plsh/internal/corpus"
	"plsh/internal/lshhash"
	"plsh/internal/node"
	"plsh/internal/sparse"
	"plsh/internal/transport"
)

// The search opcode and two response codes, as TestOpcodeValuesStable pins
// them.
const (
	opSearch  = 11
	codeOK    = 0
	codeError = 2
)

var query = sparse.Vector{Idx: []uint32{1, 5}, Val: []float32{0.5, 0.25}}

func revisionNode(t *testing.T, docs []sparse.Vector) *node.Node {
	t.Helper()
	n, err := node.Open(context.Background(), node.Config{
		Params:   lshhash.Params{Dim: 2000, K: 8, M: 6, Seed: 42},
		Capacity: 500,
		Build:    core.Defaults(),
		Query:    core.QueryDefaults(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Insert(context.Background(), docs); err != nil {
		t.Fatal(err)
	}
	return n
}

func revisionDocs(n int) []sparse.Vector {
	c := corpus.Generate(corpus.Twitter(n, 2000, 5))
	out := make([]sparse.Vector, n)
	for i := range out {
		out[i] = c.Mat.Row(i)
	}
	return out
}

// listen runs serve on a listener on an ephemeral port, closed when the
// test ends.
func listen(t *testing.T, serve func(net.Listener)) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go serve(l)
	return l.Addr().String()
}

func serveNode(t *testing.T, n *node.Node, onError func(error)) string {
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	return listen(t, func(l net.Listener) { transport.Serve(ctx, l, transport.NewLocal(n), onError) })
}

// frameTap forwards every connection made to it to upstream and reads a
// copy of each client stream on the way: the revision its preamble
// declares, then its frames. Once the clients have closed their
// connections, wait returns, for every search frame seen, the revision of
// the connection it went out on.
func frameTap(t *testing.T, upstream string) (addr string, wait func() []byte) {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		versions []byte
	)
	magic := transport.Preamble(0)[:len(transport.Preamble(0))-1]
	addr = listen(t, func(l net.Listener) {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", upstream)
			if err != nil {
				conn.Close()
				continue
			}
			go io.Copy(conn, up)
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				defer up.Close()
				r := bufio.NewReader(io.TeeReader(conn, up))
				pre := make([]byte, len(magic)+1)
				if _, err := io.ReadFull(r, pre); err != nil || !bytes.Equal(pre[:len(magic)], magic) {
					return
				}
				for {
					req, err := transport.ReadRequest(r)
					if err != nil {
						return
					}
					if req.Op == opSearch {
						mu.Lock()
						versions = append(versions, pre[len(magic)])
						mu.Unlock()
					}
				}
			}()
		}
	})
	return addr, func() []byte {
		wg.Wait()
		mu.Lock()
		defer mu.Unlock()
		return versions
	}
}

// exchange sends out on a fresh connection to addr and returns a reader
// over what the server sends back.
func exchange(t *testing.T, addr string, out []byte) *bufio.Reader {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(out); err != nil {
		t.Fatal(err)
	}
	return bufio.NewReader(conn)
}

// TestSearchFramesAcrossRevisions: every connection this binary opens — a
// partitioned coordinator's, carrying routed sub-batches, included —
// declares revision 3; a search frame on a revision-3 connection is
// answered as the same search is in process; and a connection declaring
// any other revision, 0 included, or none (a gob peer), is closed
// unanswered, the server reporting ErrPreamble naming what it saw.
func TestSearchFramesAcrossRevisions(t *testing.T) {
	ctx := context.Background()
	docs := revisionDocs(240)

	t.Run("partitioned coordinator sends revision 3", func(t *testing.T) {
		const groups = 4
		var (
			clients []transport.NodeClient
			waits   []func() []byte
			fam     *lshhash.Family
		)
		for range groups {
			n := revisionNode(t, nil)
			fam = n.Family()
			addr, wait := frameTap(t, serveNode(t, n, nil))
			c, err := transport.Dial(ctx, addr)
			if err != nil {
				t.Fatal(err)
			}
			clients, waits = append(clients, c), append(waits, wait)
		}
		router, err := cluster.NewRouter(fam, cluster.RouterConfig{Groups: groups})
		if err != nil {
			t.Fatal(err)
		}
		c, err := cluster.NewWithOptions(ctx, clients, cluster.Options{Placement: cluster.PlacementPartitioned, Router: router})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Insert(ctx, docs); err != nil {
			t.Fatal(err)
		}
		_, report, err := c.Search(ctx, docs[:16], node.SearchParams{K: 3}, cluster.BatchOptions{Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		if report.RoutedGroups == 0 || report.PrunedGroups == 0 {
			t.Fatalf("routed %d, pruned %d (query, group) pairs: the batch was not routed", report.RoutedGroups, report.PrunedGroups)
		}
		c.Close()
		seen := 0
		for _, wait := range waits {
			for _, v := range wait() {
				seen++
				if v != 3 {
					t.Errorf("search frame went out on a v%d connection, want v3", v)
				}
			}
		}
		if seen == 0 {
			t.Fatal("no search frame crossed the tap")
		}
	})

	n := revisionNode(t, docs)
	errs := make(chan error, 16)
	addr := serveNode(t, n, func(err error) {
		select {
		case errs <- err:
		default:
		}
	})
	search := func(seq uint64, p node.SearchParams) []byte {
		return transport.AppendRequest(nil, &transport.Request{Seq: seq, Op: opSearch, Vectors: []sparse.Vector{query}, Params: p})
	}
	answer := func(t *testing.T, frame []byte) *transport.Response {
		t.Helper()
		r := exchange(t, addr, append(transport.Preamble(3), frame...))
		if err := transport.ReadPreamble(r); err != nil {
			t.Fatalf("server preamble: %v", err)
		}
		resp, err := transport.ReadResponse(r)
		if err != nil {
			t.Fatalf("no response frame: %v", err)
		}
		return resp
	}

	t.Run("v3 frame is answered", func(t *testing.T) {
		resp := answer(t, search(13, node.SearchParams{Radius: 0.9, K: 5}))
		if resp.Seq != 13 || resp.Code != codeOK || len(resp.Results) != 1 {
			t.Fatalf("v3 frame answered %+v, want Seq 13, codeOK and one answer list", resp)
		}
		want, err := transport.NewLocal(n).Search(ctx, []sparse.Vector{query}, node.SearchParams{Radius: 0.9, K: 5})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(resp.Results[0], want[0]) {
			t.Fatalf("v3 frame answered %v, the same search in process %v", resp.Results[0], want[0])
		}
	})

	t.Run("every other revision is refused", func(t *testing.T) {
		// The frame a binary of the gob wire sent for this search: gob
		// matches fields by name, so these structs stand for its own.
		type gobSearch struct {
			Version uint8
			Radius  float64
			K       int
		}
		type gobRequest struct {
			Seq     uint64
			Op      uint8
			Vectors []sparse.Vector
			Search  *gobSearch
		}
		var old bytes.Buffer
		if err := gob.NewEncoder(&old).Encode(gobRequest{Seq: 19, Op: opSearch, Vectors: []sparse.Vector{query},
			Search: &gobSearch{Version: 3, K: 5}}); err != nil {
			t.Fatal(err)
		}
		type peer struct {
			name string
			out  []byte
			want string // in the server's report
		}
		peers := []peer{{"gob peer", old.Bytes(), "opened with"}}
		for i, v := range []byte{0, 1, 2, 4} {
			name := fmt.Sprintf("v%d", v)
			peers = append(peers, peer{name, append(transport.Preamble(v), search(uint64(20+i), node.SearchParams{K: 5})...), name})
		}
		for _, p := range peers {
			r := exchange(t, addr, p.out)
			if transport.ReadPreamble(r) == nil {
				if resp, err := transport.ReadResponse(r); err == nil {
					t.Errorf("%s: answered %+v, want the connection closed", p.name, resp)
				}
			}
			select {
			case err := <-errs:
				if !errors.Is(err, transport.ErrPreamble) || !strings.Contains(err.Error(), p.want) {
					t.Errorf("%s: server reported %v, want ErrPreamble naming %q", p.name, err, p.want)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%s: the server reported nothing", p.name)
			}
		}
	})

	t.Run("non-finite radius frame is refused", func(t *testing.T) {
		for i, r := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			seq := uint64(30 + i)
			resp := answer(t, search(seq, node.SearchParams{Radius: r, K: 5}))
			if resp.Seq != seq || resp.Code != codeError || !strings.Contains(resp.Err, "radius") || resp.Results != nil {
				t.Fatalf("radius %v frame answered %+v, want codeError naming the radius", r, resp)
			}
		}
	})
}
