package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"plsh/internal/core"
	"plsh/internal/node"
	"plsh/internal/sparse"
	"plsh/internal/transport"
)

// span is one timed call into a layer, recorded from this package only:
// around the call the ladder makes itself, around the NodeClient handed to
// the coordinator, around the backend handed to transport.Serve. Names
// are "layer.operation"; times are nanoseconds since the recorder's
// epoch. One request is in flight at a time, so a span's parent is both
// what caused it and what contains it.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0: the request's top-level span
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// recorder keeps spans in memory until the ladder ends. While off, the
// decorators forward without touching it, which is how the ladder runs
// its top-level pass untraced for trace.overhead_pct.
type recorder struct {
	epoch time.Time
	on    atomic.Bool

	mu    sync.Mutex
	spans []span
	req   int64
	top   int64         // the current request's top-level span
	open  map[int]int64 // node index → its client-side span still open
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), open: map[int]int64{}}
}

func (r *recorder) begin(name string, parent int64) int64 {
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans)) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: r.req, Name: name, Start: now})
	return id
}

func (r *recorder) end(id int64) {
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// request opens a new request and its top-level span. With asClient the
// span is also node 0's client-side span: the rung calls the transport
// client itself, with no coordinator in between.
func (r *recorder) request(name string, asClient bool) int64 {
	r.mu.Lock()
	r.req++
	r.mu.Unlock()
	id := r.begin(name, 0)
	r.mu.Lock()
	r.top = id
	if asClient {
		r.open[0] = id
	}
	r.mu.Unlock()
	return id
}

// beginClient opens node i's client-side span under the current request.
func (r *recorder) beginClient(name string, i int) int64 {
	r.mu.Lock()
	parent := r.top
	r.mu.Unlock()
	id := r.begin(name, parent)
	r.mu.Lock()
	r.open[i] = id
	r.mu.Unlock()
	return id
}

// beginBackend opens node i's server-side span under its client-side one.
func (r *recorder) beginBackend(name string, i int) int64 {
	r.mu.Lock()
	parent := r.open[i]
	r.mu.Unlock()
	return r.begin(name, parent)
}

// take returns the spans recorded since the last take (they also stay in
// the recorder for the trace file).
func (r *recorder) take(from int) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.spans[from:])
}

func (r *recorder) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// write dumps every span as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.take(0) {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfByLayer attributes every instant of one request's top-level span to
// the layer of the deepest span active at that instant, and returns the
// nanoseconds per layer. For a span with a single chain of children this
// is the span's duration minus the part its children cover; with parallel
// children (a scatter's fan-out) their overlap is counted once, so the
// layers always sum to the top-level span's duration exactly.
func selfByLayer(spans []span) map[string]int64 {
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	depth := func(s span) int {
		d := 0
		for s.Parent != 0 {
			p, ok := byID[s.Parent]
			if !ok {
				break
			}
			s = p
			d++
		}
		return d
	}
	cuts := make([]int64, 0, 2*len(spans))
	for _, s := range spans {
		cuts = append(cuts, s.Start, s.End)
	}
	slices.Sort(cuts)
	cuts = slices.Compact(cuts)
	out := map[string]int64{}
	for i := 0; i+1 < len(cuts); i++ {
		lo, hi := cuts[i], cuts[i+1]
		best, bestDepth := -1, -1
		for j, s := range spans {
			if s.Start <= lo && s.End >= hi {
				if d := depth(s); d > bestDepth {
					best, bestDepth = j, d
				}
			}
		}
		if best >= 0 {
			out[spans[best].layer()] += hi - lo
		}
	}
	return out
}

// byRequest groups spans by request, in request order.
func byRequest(spans []span) [][]span {
	var out [][]span
	idx := map[int64]int{}
	for _, s := range spans {
		i, ok := idx[s.Req]
		if !ok {
			i = len(out)
			idx[s.Req] = i
			out = append(out, nil)
		}
		out[i] = append(out[i], s)
	}
	return out
}

// spanClient decorates the NodeClient handed to the coordinator: node i's
// Search and Insert RPCs become "transport" spans.
type spanClient struct {
	transport.NodeClient
	rec *recorder
	i   int
}

func (c *spanClient) Search(ctx context.Context, qs []sparse.Vector, p node.SearchParams) ([][]core.Neighbor, error) {
	if !c.rec.on.Load() {
		return c.NodeClient.Search(ctx, qs, p)
	}
	id := c.rec.beginClient("transport.search", c.i)
	defer c.rec.end(id)
	return c.NodeClient.Search(ctx, qs, p)
}

func (c *spanClient) Insert(ctx context.Context, vs []sparse.Vector) ([]uint32, error) {
	if !c.rec.on.Load() {
		return c.NodeClient.Insert(ctx, vs)
	}
	id := c.rec.beginClient("transport.insert", c.i)
	defer c.rec.end(id)
	return c.NodeClient.Insert(ctx, vs)
}

// spanBackend decorates the backend handed to transport.Serve: what node
// i's server spends inside the node becomes "node" spans. It embeds the
// concrete *transport.Local so the server still sees a transport.Releaser
// and recycles answer buffers exactly as plsh-node does.
type spanBackend struct {
	*transport.Local
	rec *recorder
	i   int
}

func (b *spanBackend) Search(ctx context.Context, qs []sparse.Vector, p node.SearchParams) ([][]core.Neighbor, error) {
	if !b.rec.on.Load() {
		return b.Local.Search(ctx, qs, p)
	}
	id := b.rec.beginBackend("node.search", b.i)
	defer b.rec.end(id)
	return b.Local.Search(ctx, qs, p)
}

func (b *spanBackend) Insert(ctx context.Context, vs []sparse.Vector) ([]uint32, error) {
	if !b.rec.on.Load() {
		return b.Local.Insert(ctx, vs)
	}
	id := b.rec.beginBackend("node.insert", b.i)
	defer b.rec.end(id)
	return b.Local.Insert(ctx, vs)
}

// countingListener counts the bytes of every connection it accepts, seen
// from the server: read is request bytes, written is response bytes.
type countingListener struct {
	net.Listener
	read, written atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, l: l}, nil
}

func (l *countingListener) total() int64 { return l.read.Load() + l.written.Load() }

type countingConn struct {
	net.Conn
	l *countingListener
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.read.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.l.written.Add(int64(n))
	return n, err
}
