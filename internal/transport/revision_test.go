package transport_test

// The test in this file speaks to the wire as peers of other revisions do:
// through gob frames whose structs mirror the frame layout by field name —
// all gob matches on — rather than through the package's own frame types,
// which can only ever encode this revision.

import (
	"context"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"

	"plsh/internal/cluster"
	"plsh/internal/core"
	"plsh/internal/corpus"
	"plsh/internal/lshhash"
	"plsh/internal/node"
	"plsh/internal/sparse"
	"plsh/internal/transport"
)

// wireSearch mirrors the search-parameter struct of revision 3. A frame
// declaring another revision in this layout decodes on the server as one
// from a peer of that revision that set no parameter revision 3 lacks.
type wireSearch struct {
	Version uint8
	Radius  float64
	K       int
}

type wireRequest struct {
	Seq     uint64
	Op      uint8
	Vectors []sparse.Vector
	Search  *wireSearch
}

type wireResponse struct {
	Seq     uint64
	Code    uint8
	Err     string
	Results [][]core.Neighbor
}

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

func serveNode(t *testing.T, n *node.Node) string {
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	return listen(t, func(l net.Listener) { transport.Serve(ctx, l, transport.NewLocal(n), nil) })
}

// frameTap forwards every connection made to it to upstream and decodes a
// copy of each client frame on the way. Once the clients have closed their
// connections, wait returns the search parameters of every frame seen.
func frameTap(t *testing.T, upstream string) (addr string, wait func() []wireSearch) {
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		frames []wireSearch
	)
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
				dec := gob.NewDecoder(io.TeeReader(conn, up))
				for {
					var req wireRequest
					if dec.Decode(&req) != nil {
						return
					}
					if req.Search != nil {
						mu.Lock()
						frames = append(frames, *req.Search)
						mu.Unlock()
					}
				}
			}()
		}
	})
	return addr, func() []wireSearch {
		wg.Wait()
		mu.Lock()
		defer mu.Unlock()
		return frames
	}
}

// roundTrip writes raw on a fresh connection to addr and decodes one
// response.
func roundTrip(t *testing.T, addr string, send func(w io.Writer) error) wireResponse {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := send(conn); err != nil {
		t.Fatal(err)
	}
	var resp wireResponse
	if err := gob.NewDecoder(conn).Decode(&resp); err != nil {
		t.Fatalf("no response frame: %v", err)
	}
	return resp
}

// TestSearchFramesAcrossRevisions: every search frame this binary sends —
// a partitioned coordinator's routed sub-batches included — declares
// revision 3; a revision-3 frame is answered as the same search is in
// process; and a frame declaring any other revision, 0 included, is
// refused with an error rather than served with parameters dropped.
func TestSearchFramesAcrossRevisions(t *testing.T) {
	ctx := context.Background()
	docs := revisionDocs(240)

	t.Run("partitioned coordinator sends revision 3", func(t *testing.T) {
		const groups = 4
		var (
			clients []transport.NodeClient
			waits   []func() []wireSearch
			fam     *lshhash.Family
		)
		for range groups {
			n := revisionNode(t, nil)
			fam = n.Family()
			addr, wait := frameTap(t, serveNode(t, n))
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
			for _, f := range wait() {
				seen++
				if f.Version != 3 {
					t.Errorf("search frame went out as v%d, want v3", f.Version)
				}
			}
		}
		if seen == 0 {
			t.Fatal("no search frame crossed the tap")
		}
	})

	n := revisionNode(t, docs)
	addr := serveNode(t, n)
	send := func(seq uint64, p wireSearch) wireResponse {
		return roundTrip(t, addr, func(w io.Writer) error {
			return gob.NewEncoder(w).Encode(wireRequest{Seq: seq, Op: opSearch, Vectors: []sparse.Vector{query}, Search: &p})
		})
	}

	t.Run("v3 frame is answered", func(t *testing.T) {
		resp := send(13, wireSearch{Version: 3, Radius: 0.9, K: 5})
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
		for i, p := range []wireSearch{
			{Version: 0, K: 5},
			{Version: 1, K: 5},
			{Version: 2, K: 5},
			{Version: 4, K: 5},
		} {
			seq := uint64(20 + i)
			resp := send(seq, p)
			if resp.Seq != seq || resp.Code != codeError || !strings.Contains(resp.Err, fmt.Sprintf("v%d", p.Version)) || resp.Results != nil {
				t.Errorf("%+v frame answered %+v, want codeError naming the revision", p, resp)
			}
		}
	})

	t.Run("non-finite radius frame is refused", func(t *testing.T) {
		for i, r := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			seq := uint64(30 + i)
			resp := send(seq, wireSearch{Version: 3, Radius: r, K: 5})
			if resp.Seq != seq || resp.Code != codeError || !strings.Contains(resp.Err, "radius") || resp.Results != nil {
				t.Fatalf("radius %v frame answered %+v, want codeError naming the radius", r, resp)
			}
		}
	})
}
