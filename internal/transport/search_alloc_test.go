package transport

import (
	"context"
	"net"
	"sync/atomic"
	"testing"

	"plsh/internal/core"
	"plsh/internal/corpus"
	"plsh/internal/israce"
	"plsh/internal/lshhash"
	"plsh/internal/node"
	"plsh/internal/sparse"
)

// suiteNode is a node of the benchmark suite's fleet geometry (K 16, M 16,
// Dim 50 000, the tweet corpus) holding 8 000 merged rows, about one
// fleet_routed_batch group, and a 16-query batch: 8 of those rows, which
// find themselves and their near-duplicates, and 8 documents of the same
// corpus the node does not hold. It searches on two workers, so a batch's
// allocations do not follow the host's CPU count.
func suiteNode(tb testing.TB) (*node.Node, []sparse.Vector) {
	tb.Helper()
	const rows, fresh = 8000, 8
	params := lshhash.Params{Dim: 50000, K: 16, M: 16, Seed: 1}
	n, err := node.Open(context.Background(), node.Config{
		Params:   params,
		Capacity: rows,
		Build:    core.Defaults(),
		Query:    core.QueryOptions{Radius: core.QueryDefaults().Radius, Workers: 2},
	})
	if err != nil {
		tb.Fatal(err)
	}
	col := corpus.Generate(corpus.Twitter(rows+fresh, params.Dim, 1))
	docs := make([]sparse.Vector, rows+fresh)
	for i := range docs {
		docs[i] = col.Mat.Row(i)
	}
	if _, err := n.Insert(context.Background(), docs[:rows]); err != nil {
		tb.Fatal(err)
	}
	if err := n.MergeNow(context.Background()); err != nil {
		tb.Fatal(err)
	}
	qs := docs[rows:]
	for i := range fresh {
		qs = append(qs, docs[i*rows/fresh])
	}
	return n, qs
}

// TestTCPSearchAllocationCeiling guards the wire's share of a fleet query:
// a warm 16-query top-10 Client.Search against a real node over loopback,
// both ends in this process, must hold a fixed allocation budget. It
// measures 21 on x86-64; gob, the wire's codec before this one, took 206,
// a node that grew one answer slice a query 34, and one whose pool
// allocated a closure for every worker goroutine 24. The codec carves each
// frame's vectors and answer lists from one array apiece, and the node
// its batch's lists from one answer array.
func TestTCPSearchAllocationCeiling(t *testing.T) {
	if israce.Enabled {
		t.Skip("sync.Pool drops workspaces at random under -race")
	}
	n, qs := suiteNode(t)
	addr, _ := startServer(t, n)
	client, err := Dial(bg, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	p := node.SearchParams{K: 10}
	search := func() {
		if _, err := client.Search(bg, qs, p); err != nil {
			t.Fatal(err)
		}
	}
	for range 32 {
		search()
	}
	// A jump past the ceiling means per-frame allocation crept back into
	// the codec or the connection's loops.
	const ceiling = 23
	allocs := testing.AllocsPerRun(50, search)
	t.Logf("a 16-query Client.Search allocates %.1f/op warm", allocs)
	if allocs > ceiling {
		t.Errorf("a 16-query Client.Search allocates %.1f/op warm; ceiling %d", allocs, ceiling)
	}
}

// byteListener counts every byte its connections read or write.
type byteListener struct {
	net.Listener
	n *atomic.Int64
}

func (l byteListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return byteConn{c, l.n}, nil
}

type byteConn struct {
	net.Conn
	n *atomic.Int64
}

func (c byteConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c byteConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// BenchmarkTCPSearchBatch16 puts the wire beside the node: the same
// 16-query top-10 batch against the same node, over loopback TCP and
// through Local, so the wire's cost per batch is the difference of the two
// arms' ns/op and allocs/op. The tcp arm also reports the bytes that
// crossed the wire, both directions, per query.
func BenchmarkTCPSearchBatch16(b *testing.B) {
	n, qs := suiteNode(b)
	var wire atomic.Int64
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(bg)
	defer cancel()
	go Serve(ctx, byteListener{l, &wire}, NewLocal(n), nil)
	remote, err := Dial(bg, l.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer remote.Close()
	p := node.SearchParams{K: 10}
	for _, arm := range []struct {
		name string
		c    NodeClient
	}{{"tcp", remote}, {"local", NewLocal(n)}} {
		b.Run(arm.name, func(b *testing.B) {
			if _, err := arm.c.Search(bg, qs, p); err != nil { // warm
				b.Fatal(err)
			}
			b.ReportAllocs()
			w0, batches := wire.Load(), 0
			for b.Loop() {
				if _, err := arm.c.Search(bg, qs, p); err != nil {
					b.Fatal(err)
				}
				batches++
			}
			if arm.name == "tcp" {
				b.ReportMetric(float64(wire.Load()-w0)/float64(batches*len(qs)), "wire-B/query")
			}
		})
	}
}
