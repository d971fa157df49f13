package transport_test

// The test in this file speaks to the wire as peers of other revisions do:
// through gob frames whose structs mirror the frame layout by field name —
// all gob matches on — rather than through the package's own frame types,
// which can only ever encode this revision.

import (
	"context"
	"encoding/gob"
	"encoding/hex"
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

// wireSearch mirrors the search-parameter struct of every revision,
// including the routing hint revision 2 carried, so a frame that still
// carries one shows it.
type wireSearch struct {
	Version uint8
	Radius  float64
	K       int
	Routing uint8
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

// routedV2Frame is what a coordinator built while search frames carried the
// routing hint sent on a fresh connection for a routed search: gob's type
// descriptors, then one revision-2 frame — Seq 13, Radius 0.9, K 5,
// Routing 1 — whose one query is routedQuery.
const routedV2Frame = "" +
	"567f030101077265717565737401ff80000107010353657101060001024f7001" +
	"06000107566563746f727301ff88000102494401060001014b01040001065365" +
	"6172636801ff8a000108446561646c696e6501040000001eff870201010f5b5d" +
	"7370617273652e566563746f7201ff880001ff82000026ff8103010106566563" +
	"746f7201ff82000102010349647801ff8400010356616c01ff8600000016ff83" +
	"020101085b5d75696e74333201ff84000106000017ff85020101095b5d666c6f" +
	"6174333201ff86000108000055ff890301010c736561726368506172616d7301" +
	"ff8a000105010756657273696f6e010600010652616469757301080001014b01" +
	"0400010d4d617843616e646964617465730104000107526f7574696e67010600" +
	"000028ff80010d010b0101010201050102fee03ffed03f0003010201f8cdcccc" +
	"ccccccec3f010a02010000"

var routedQuery = sparse.Vector{Idx: []uint32{1, 5}, Val: []float32{0.5, 0.25}}

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
// a partitioned coordinator's routed sub-batches included — declares the
// base revision and carries no routing hint; a revision-2 frame from an
// older coordinator is still answered, as the same search is in process;
// and a revision above 2 is refused with an error rather than served with
// parameters the server cannot read.
func TestSearchFramesAcrossRevisions(t *testing.T) {
	ctx := context.Background()
	docs := revisionDocs(240)

	t.Run("partitioned coordinator sends the base revision", func(t *testing.T) {
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
				if f.Version != 1 || f.Routing != 0 {
					t.Errorf("search frame went out as v%d with routing hint %d, want v1 with none", f.Version, f.Routing)
				}
			}
		}
		if seen == 0 {
			t.Fatal("no search frame crossed the tap")
		}
	})

	n := revisionNode(t, docs)
	addr := serveNode(t, n)

	t.Run("v2 routed frame is answered", func(t *testing.T) {
		raw, err := hex.DecodeString(routedV2Frame)
		if err != nil {
			t.Fatal(err)
		}
		resp := roundTrip(t, addr, func(w io.Writer) error { _, err := w.Write(raw); return err })
		if resp.Seq != 13 || resp.Code != codeOK || len(resp.Results) != 1 {
			t.Fatalf("v2 frame answered %+v, want Seq 13, codeOK and one answer list", resp)
		}
		want, err := transport.NewLocal(n).Search(ctx, []sparse.Vector{routedQuery}, node.SearchParams{Radius: 0.9, K: 5})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(resp.Results[0], want[0]) {
			t.Fatalf("v2 frame answered %v, the same search in process %v", resp.Results[0], want[0])
		}
	})

	t.Run("v3 frame is refused", func(t *testing.T) {
		resp := roundTrip(t, addr, func(w io.Writer) error {
			return gob.NewEncoder(w).Encode(wireRequest{Seq: 14, Op: opSearch, Vectors: []sparse.Vector{routedQuery},
				Search: &wireSearch{Version: 3, K: 5}})
		})
		if resp.Seq != 14 || resp.Code != codeError || !strings.Contains(resp.Err, "v3") || resp.Results != nil {
			t.Fatalf("v3 frame answered %+v, want codeError naming the revision", resp)
		}
	})

	t.Run("non-finite radius frame is refused", func(t *testing.T) {
		for i, r := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			seq := uint64(15 + i)
			resp := roundTrip(t, addr, func(w io.Writer) error {
				return gob.NewEncoder(w).Encode(wireRequest{Seq: seq, Op: opSearch, Vectors: []sparse.Vector{routedQuery},
					Search: &wireSearch{Version: 1, Radius: r, K: 5}})
			})
			if resp.Seq != seq || resp.Code != codeError || !strings.Contains(resp.Err, "radius") || resp.Results != nil {
				t.Fatalf("radius %v frame answered %+v, want codeError naming the radius", r, resp)
			}
		}
	})
}
