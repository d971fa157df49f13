package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"time"

	"plsh/internal/core"
	"plsh/internal/node"
	"plsh/internal/sparse"
)

// The wire protocol is a sequence of binary frames in each direction over
// one TCP connection (codec.go has the layout). Every request carries a
// client-assigned sequence number;
// the server handles each request in its own goroutine and writes the
// response — tagged with the same sequence number — as soon as it is
// ready, so responses may arrive out of order and many RPCs are in flight
// per connection at once (the net/rpc design: a writer goroutine
// serializing frames, a reader goroutine dispatching on a pending map).
// Cancellation crosses the wire two ways: each request carries its
// context deadline, and an abandoned call sends a best-effort opCancel
// frame, so the server stops spending CPU on answers nobody will read.

// op enumerates wire operations.
type op uint8

const (
	opInsert op = iota + 1
	// Opcodes 2 and 3 (a batch query and a top-k query) are retired, their
	// numbers reserved: opSearch carries every query, and the server
	// answers either as an unknown op.
	_
	_
	opDelete
	opMerge
	opRetire
	opStats
	// opCancel aborts the in-flight request whose Seq it carries; it has
	// no response frame.
	opCancel
	// New ops append after the last one, and TestOpcodeValuesStable pins
	// the numbers. A peer of another revision is closed at its preamble,
	// so an op this binary does not know is malformed input from a peer of
	// the same revision: handle answers it with a codeError, never a guess.
	opFlush
	// opSave checkpoints the node's data directory (snapshot + journal
	// truncation).
	opSave
	// opSearch is the unified query op: a batch of vectors plus the
	// request-scoped parameters (radius, top-k bound).
	opSearch
	// opDoc fetches one stored vector by node-local id, plus the node's
	// authoritative known/unknown answer.
	opDoc
)

// request is the client→server frame: a plain value made for one RPC (or
// decoded from one frame) and garbage once that RPC is done.
type request struct {
	Seq     uint64
	Op      op
	Vectors []sparse.Vector   // Insert / Search
	Params  node.SearchParams // Search
	ID      uint32            // Delete / Doc target
	// Deadline is the caller's context deadline as Unix nanoseconds (0 =
	// none). The server bounds the backend call with it, so an expired
	// client deadline stops costing server CPU even if the cancel frame
	// never arrives. Assumes loosely synchronized clocks; skew only moves
	// when the server gives up, never the client-side outcome.
	Deadline int64
}

// respCode distinguishes sentinel errors across the wire.
type respCode uint8

const (
	codeOK respCode = iota
	codeFull
	codeError
	// codeNotFound carries node.ErrNotFound (delete of a never-inserted
	// id). A code past it is malformed input, which decodeResponse refuses.
	codeNotFound
)

// response is the server→client frame, a plain per-RPC value like
// request. Op echoes the request's, and selects the payload on the wire.
type response struct {
	Seq     uint64
	Op      op
	Code    respCode
	Err     string
	IDs     []uint32
	Results [][]core.Neighbor
	Stats   node.Stats
	// Doc and Known answer an opDoc request.
	Doc   sparse.Vector
	Known bool
}

// Serve answers requests for backend on l until ctx is canceled (clean
// shutdown: returns nil) or the listener fails. Each connection decodes
// requests sequentially but handles every request in its own goroutine,
// so one connection sustains many concurrent RPCs. Cancellation closes
// the listener and every open connection, failing in-flight client calls
// promptly instead of leaving them hanging; Serve returns only after
// every connection's handlers have finished, so the backend is quiescent
// when it does.
//
// onError, if non-nil, receives connection-level failures (a peer that
// does not open with this binary's preamble, ErrPreamble; frame decode
// errors; response write errors) that would otherwise be silent; it may be
// called from multiple goroutines.
func Serve(ctx context.Context, l net.Listener, backend NodeClient, onError func(error)) error {
	return ServeWithOptions(ctx, l, backend, ServeOptions{OnError: onError})
}

// ServeOptions configures Serve's shutdown behavior.
type ServeOptions struct {
	// Drain is the graceful-shutdown window. When the serve context is
	// canceled, intake stops immediately — the listener closes and no
	// further requests are decoded — but requests already in flight keep
	// their backend contexts and connections alive for up to Drain, so
	// their answers (and, on a durable node, their journal appends) land
	// instead of being torn mid-write. Requests still running at the end
	// of the window are hard-canceled. Zero reproduces the legacy
	// behavior: cancellation aborts in-flight requests at once.
	Drain time.Duration
	// OnError, if non-nil, receives connection-level failures (a wrong
	// preamble, frame decode errors, response write errors) that would
	// otherwise be silent; it may be called from multiple goroutines.
	OnError func(error)
}

// ServeWithOptions is Serve with explicit shutdown options; see Serve for
// the serving contract and ServeOptions.Drain for the graceful-shutdown
// window. Like Serve it returns only after every in-flight handler has
// finished, so the backend is quiescent — checkpointable — when it does.
func ServeWithOptions(ctx context.Context, l net.Listener, backend NodeClient, opts ServeOptions) error {
	// Request contexts derive from hardCtx, which outlives the serve
	// context by the drain window: canceling ctx stops intake (soft stop)
	// while in-flight requests keep running until they finish or the
	// window closes.
	hardCtx, hardCancel := context.WithCancel(context.WithoutCancel(ctx))
	defer hardCancel()
	stopDrain := context.AfterFunc(ctx, func() {
		if opts.Drain <= 0 {
			hardCancel()
			return
		}
		time.AfterFunc(opts.Drain, hardCancel)
	})
	defer stopDrain()
	stop := context.AfterFunc(ctx, func() { l.Close() })
	defer stop()
	var conns sync.WaitGroup
	defer conns.Wait()
	for {
		conn, err := l.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return nil // clean shutdown
			}
			return err
		}
		conns.Add(1)
		go func() {
			defer conns.Done()
			serveConn(ctx, hardCtx, conn, backend, opts.OnError)
		}()
	}
}

// serveConn serves one connection. ctx is the serve (soft-stop) context:
// its cancellation stops decoding — via an immediate read deadline, so
// the connection stays writable for draining answers. hardCtx bounds the
// in-flight requests themselves; its cancellation closes the connection
// outright. Without a drain window the two cancel together, which is the
// legacy abort-everything shutdown.
func serveConn(ctx, hardCtx context.Context, conn net.Conn, backend NodeClient, onError func(error)) {
	defer conn.Close() // best-effort; the peer sees EOF either way
	stopSoft := context.AfterFunc(ctx, func() {
		_ = conn.SetReadDeadline(time.Unix(1, 0)) // unblock the decoder, keep the conn writable
	})
	defer stopSoft()
	stop := context.AfterFunc(hardCtx, func() { conn.Close() })
	defer stop()
	report := func(what string, err error) {
		// EOF is a clean client close and shutdown races are expected;
		// anything else is a protocol/peer failure worth surfacing.
		if err != io.EOF && ctx.Err() == nil && !errors.Is(err, net.ErrClosed) && onError != nil {
			onError(fmt.Errorf("transport: %s %v: %w", what, conn.RemoteAddr(), err))
		}
	}
	br := bufio.NewReader(conn)
	if err := readPreamble(br); err != nil {
		report("preamble from", err)
		return
	}
	// Each response is encoded into its own buffer before writeMu is
	// taken: the lock covers one Write of a finished frame. The server's
	// preamble goes out ahead of its first frame, not at accept: a client
	// that closes a connection holding bytes it never read resets it, and
	// the server would read that reset where an idle close reads EOF.
	var writeMu sync.Mutex
	preamble := appendPreamble(nil) // guarded by writeMu; nil once sent
	reply := func(resp *response) {
		frame := appendResponse(nil, resp)
		if len(frame)-4 > maxFrame {
			frame = appendResponse(nil, &response{Seq: resp.Seq, Op: resp.Op, Code: codeError,
				Err: fmt.Sprintf("transport: %d-byte reply past the %d-byte frame ceiling", len(frame)-4, maxFrame)})
		}
		var err error
		writeMu.Lock()
		if preamble != nil {
			_, err = conn.Write(preamble)
			preamble = nil
		}
		if err == nil {
			_, err = conn.Write(frame)
		}
		writeMu.Unlock()
		if err != nil {
			report("write to", err)
		}
	}
	// inflight maps request Seq → cancel func, so an opCancel frame from
	// the client aborts the matching backend call.
	var inflightMu sync.Mutex
	inflight := map[uint64]context.CancelFunc{}
	var wg sync.WaitGroup
	var buf []byte // the frame buffer; decoding copies everything out of it
	for {
		payload, err := readFrame(br, buf)
		if err != nil {
			report("read from", err)
			break
		}
		req, err := decodeRequest(payload)
		buf = keep(payload)
		if err != nil {
			report("decode from", err)
			break
		}
		if req.Op == opCancel {
			inflightMu.Lock()
			cancel := inflight[req.Seq]
			inflightMu.Unlock()
			if cancel != nil {
				cancel()
			}
			continue
		}
		var rctx context.Context
		var rcancel context.CancelFunc
		if req.Deadline > 0 {
			rctx, rcancel = context.WithDeadline(hardCtx, time.Unix(0, req.Deadline))
		} else {
			rctx, rcancel = context.WithCancel(hardCtx)
		}
		// A Seq already in flight is refused, not run: its cancel func would
		// replace the first request's, and the first one's exit would then
		// drop the second's, leaving neither cancelable.
		inflightMu.Lock()
		_, dup := inflight[req.Seq]
		if !dup {
			inflight[req.Seq] = rcancel
		}
		inflightMu.Unlock()
		wg.Add(1)
		if dup {
			rcancel()
			go func(req *request) {
				defer wg.Done()
				reply(&response{Seq: req.Seq, Op: req.Op, Code: codeError,
					Err: fmt.Sprintf("transport: request %d is already in flight", req.Seq)})
			}(req)
			continue
		}
		go func(req *request, rctx context.Context) {
			defer wg.Done()
			defer func() {
				inflightMu.Lock()
				delete(inflight, req.Seq)
				inflightMu.Unlock()
				rcancel()
			}()
			resp := &response{Seq: req.Seq, Op: req.Op}
			handle(rctx, backend, req, resp)
			reply(resp)
		}(req, rctx)
	}
	// The decode loop is done. On a real peer disconnect nobody will read
	// the remaining answers, so abort their backend work instead of
	// letting it run to completion. On a soft stop (serve context
	// canceled, connection still writable) the in-flight requests are
	// exactly what the drain window exists for: let them finish and
	// answer, bounded by hardCtx.
	if ctx.Err() == nil {
		inflightMu.Lock()
		for _, cancel := range inflight {
			cancel()
		}
		inflightMu.Unlock()
	}
	wg.Wait()
}

func handle(ctx context.Context, backend NodeClient, req *request, resp *response) {
	fail := func(err error) {
		if errors.Is(err, node.ErrFull) {
			resp.Code = codeFull
			return
		}
		if errors.Is(err, node.ErrNotFound) {
			resp.Code = codeNotFound
			return
		}
		resp.Code = codeError
		resp.Err = err.Error()
	}
	switch req.Op {
	case opInsert:
		ids, err := backend.Insert(ctx, req.Vectors)
		if err != nil {
			fail(err)
			break
		}
		resp.IDs = ids
	case opSearch:
		if r := req.Params.Radius; math.IsNaN(r) || math.IsInf(r, 0) {
			fail(fmt.Errorf("transport: search radius %v is not finite", r))
			break
		}
		res, err := backend.Search(ctx, req.Vectors, req.Params)
		if err != nil {
			fail(err)
			break
		}
		if len(res) != len(req.Vectors) {
			fail(fmt.Errorf("transport: backend returned %d answer lists for %d queries",
				len(res), len(req.Vectors)))
			break
		}
		resp.Results = res
	case opDoc:
		v, known, err := backend.Doc(ctx, req.ID)
		if err != nil {
			fail(err)
			break
		}
		resp.Doc = v
		resp.Known = known
	case opDelete:
		if err := backend.Delete(ctx, req.ID); err != nil {
			fail(err)
		}
	case opMerge:
		if err := backend.MergeNow(ctx); err != nil {
			fail(err)
		}
	case opFlush:
		if err := backend.Flush(ctx); err != nil {
			fail(err)
		}
	case opRetire:
		if err := backend.Retire(ctx); err != nil {
			fail(err)
		}
	case opSave:
		if err := backend.Save(ctx); err != nil {
			fail(err)
		}
	case opStats:
		st, err := backend.Stats(ctx)
		if err != nil {
			fail(err)
			break
		}
		resp.Stats = st
	default:
		fail(fmt.Errorf("transport: unknown op %d", req.Op))
	}
}

// Client is a NodeClient over TCP to one node address. Any number of
// calls may be in flight concurrently over its connection: each is
// assigned a sequence number, a writer goroutine serializes frames onto
// the wire, and a reader goroutine dispatches responses to waiting calls
// by sequence number. A canceled call returns ctx.Err() immediately —
// even while its frame is still queued behind a stalled send — and tells
// the server to abandon the request (best-effort cancel frame, plus the
// deadline carried in the request itself); its late response, if any, is
// discarded on arrival.
//
// The client survives connection loss. The call that observes the death
// of its connection (a crashed peer, a dropped link) still fails: retry
// belongs to the caller, whose replica failover decides whether to try a
// sibling instead. The next call dials a fresh connection under its own
// ctx, so a SIGKILLed node that restarted from its journal rejoins a
// running cluster without the coordinator being rebuilt, and no call ever
// waits on another call's dial: concurrent callers may dial at once, the
// first to finish installs its connection, and the others close theirs
// and use it.
type Client struct {
	addr   string
	dialer net.Dialer // the zero Dialer; tests hold a dial open through ControlContext

	mu     sync.Mutex // guards cur and closed; never held across a dial or a close
	cur    *conn
	closed bool
}

// Dial connects to a node server at addr, honoring ctx for the dial
// itself. The dial is eager, so an unreachable node fails construction.
func Dial(ctx context.Context, addr string) (*Client, error) {
	c := &Client{addr: addr}
	cn, err := c.dial(ctx)
	if err != nil {
		return nil, err
	}
	c.cur = cn
	return c, nil
}

// dial opens a fresh connection to the client's address.
func (c *Client) dial(ctx context.Context) (*conn, error) {
	nc, err := c.dialer.DialContext(ctx, "tcp", c.addr)
	if err != nil {
		return nil, err
	}
	// The preamble goes out at once: a 5-byte write to a fresh socket.
	if _, err := nc.Write(appendPreamble(nil)); err != nil {
		nc.Close()
		return nil, err
	}
	cn := &conn{
		nc:      nc,
		writeCh: make(chan *request, 16),
		dead:    make(chan struct{}),
		pending: map[uint64]chan *response{},
	}
	go cn.writeLoop()
	go cn.readLoop()
	return cn, nil
}

// live returns the connection a call should use, replacing one that has
// failed terminally. The replacement is dialed under the caller's ctx with
// no lock held, and installed only if no other caller installed one
// first; otherwise it is closed and the installed one is used.
func (c *Client) live(ctx context.Context) (*conn, error) {
	c.mu.Lock()
	cur, closed := c.cur, c.closed
	c.mu.Unlock()
	if closed {
		return nil, errClosed
	}
	if !cur.broken() {
		return cur, nil
	}
	fresh, err := c.dial(ctx)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, err
	}
	c.mu.Lock()
	installed, closed := c.cur, c.closed
	if !closed && installed == cur {
		c.cur = fresh
	}
	c.mu.Unlock()
	switch {
	case closed:
		fresh.close()
		return nil, errClosed
	case installed != cur:
		fresh.close()
		return installed, nil
	}
	// The replaced connection needs no close: its failure tore it down.
	return fresh, nil
}

// do sends req over the live connection and waits for its answer.
func (c *Client) do(ctx context.Context, req *request) (*response, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cn, err := c.live(ctx)
	if err != nil {
		return nil, err
	}
	return cn.do(ctx, req)
}

// conn is one TCP connection of a Client, dead for good once it fails.
type conn struct {
	nc net.Conn

	writeCh chan *request // consumed by writeLoop in FIFO order
	dead    chan struct{} // closed when the connection is torn down

	mu      sync.Mutex // guards seq, pending, err, down
	seq     uint64
	pending map[uint64]chan *response
	err     error // first terminal connection error
	down    bool  // dead already closed
}

// writeLoop is the single writer: it encodes queued frames into one
// buffer it owns until the connection dies. Callers never block on a slow
// send — they wait on their response channel (or their context) instead;
// a frame whose caller gave up meanwhile is still sent (the cancel frame
// follows it), reading the caller's vectors but never writing them. The
// buffer is written out only when the queue drains, so a burst of
// concurrent calls coalesces into fewer, larger writes.
func (c *conn) writeLoop() {
	var b []byte
	for {
		select {
		case req := <-c.writeCh:
			b = appendRequest(b, req)
			if len(c.writeCh) > 0 {
				continue
			}
			_, err := c.nc.Write(b)
			b = keep(b)
			if err != nil {
				c.fail(fmt.Errorf("transport: send: %w", err))
				return
			}
		case <-c.dead:
			return
		}
	}
}

// readLoop checks the server's preamble, then dispatches response frames
// to pending calls until the connection dies, and then fails whatever is
// still waiting. Each frame is decoded into a fresh response the waiting
// call then owns; one for a call that was canceled, or a stray, is
// dropped.
func (c *conn) readLoop() {
	r := bufio.NewReader(c.nc)
	err := readPreamble(r)
	var buf []byte
	for err == nil {
		var payload []byte
		if payload, err = readFrame(r, buf); err != nil {
			break
		}
		var resp *response
		resp, err = decodeResponse(payload)
		buf = keep(payload)
		if err != nil {
			break
		}
		c.mu.Lock()
		ch := c.pending[resp.Seq]
		delete(c.pending, resp.Seq)
		c.mu.Unlock()
		if ch != nil {
			ch <- resp // buffered; never blocks
		}
	}
	c.fail(fmt.Errorf("transport: receive: %w", err))
}

// fail records the connection's terminal error once, tears the
// connection down, and wakes every pending call. Idempotent; returns the
// underlying close error for Close's benefit.
func (c *conn) fail(err error) error {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	down := c.down
	c.down = true
	for seq, ch := range c.pending {
		delete(c.pending, seq)
		close(ch)
	}
	c.mu.Unlock()
	if !down {
		close(c.dead)
	}
	return c.nc.Close()
}

// close tears the connection down; calls still on it fail with a
// closed-client error.
func (c *conn) close() error { return c.fail(errClosed) }

// broken reports whether the connection has failed terminally. A call
// that merely hit its context deadline leaves it healthy.
func (c *conn) broken() bool {
	select {
	case <-c.dead:
		return true
	default:
		return false
	}
}

// terminalErr returns the error pending calls should report after their
// channel was closed without a response.
func (c *conn) terminalErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// do sends req and waits for its answer. It fills in the sequence number
// and the deadline; the frame is the call's own, read by writeLoop and
// nobody else. A frame the server would refuse as too big is refused here,
// before it can cost the connection.
func (c *conn) do(ctx context.Context, req *request) (*response, error) {
	if err := checkSize(req); err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
	c.seq++
	seq := c.seq
	req.Seq = seq
	ch := make(chan *response, 1)
	c.pending[seq] = ch
	c.mu.Unlock()

	// Carry the caller's deadline to the server so abandoned work is
	// bounded there too.
	if dl, ok := ctx.Deadline(); ok {
		req.Deadline = dl.UnixNano()
	}

	select {
	case c.writeCh <- req:
	case <-ctx.Done():
		c.forget(seq)
		return nil, ctx.Err()
	case <-c.dead:
		c.forget(seq)
		return nil, c.terminalErr()
	}

	select {
	case resp, ok := <-ch:
		if !ok {
			return nil, c.terminalErr() // closed by fail()
		}
		switch resp.Code {
		case codeFull:
			return nil, node.ErrFull
		case codeNotFound:
			return nil, node.ErrNotFound
		case codeError:
			// The request carried the caller's deadline, so the server can
			// observe its expiry first and answer before the local timer
			// fires. Past the deadline the call's outcome is the deadline,
			// whichever side noticed.
			if dl, ok := ctx.Deadline(); ok && !time.Now().Before(dl) {
				return nil, context.DeadlineExceeded
			}
			return nil, fmt.Errorf("transport: remote: %s", resp.Err)
		}
		return resp, nil
	case <-ctx.Done():
		c.forget(seq)
		c.sendCancel(seq)
		return nil, ctx.Err()
	}
}

// forget abandons a pending call (cancellation or send failure); a late
// response for it will be discarded by readLoop.
func (c *conn) forget(seq uint64) {
	c.mu.Lock()
	delete(c.pending, seq)
	c.mu.Unlock()
}

// sendCancel tells the server to abandon seq. Best-effort: if the write
// queue is saturated or the connection is down the frame is dropped —
// the deadline carried in the original request still bounds the
// server-side work.
func (c *conn) sendCancel(seq uint64) {
	select {
	case c.writeCh <- &request{Op: opCancel, Seq: seq}:
	default:
	}
}

// doEmpty runs an RPC whose response carries no payload beyond its code.
func (c *Client) doEmpty(ctx context.Context, req *request) error {
	_, err := c.do(ctx, req)
	return err
}

// Insert implements NodeClient.
func (c *Client) Insert(ctx context.Context, vs []sparse.Vector) ([]uint32, error) {
	resp, err := c.do(ctx, &request{Op: opInsert, Vectors: vs})
	if err != nil {
		return nil, err
	}
	return resp.IDs, nil
}

// Search implements NodeClient: one frame carries the batch and the
// request-scoped parameters.
func (c *Client) Search(ctx context.Context, qs []sparse.Vector, p node.SearchParams) ([][]core.Neighbor, error) {
	resp, err := c.do(ctx, &request{Op: opSearch, Vectors: qs, Params: p})
	if err != nil {
		return nil, err
	}
	if len(resp.Results) != len(qs) {
		return nil, fmt.Errorf("transport: reply carries %d answer lists for %d queries",
			len(resp.Results), len(qs))
	}
	return resp.Results, nil
}

// Doc implements NodeClient.
func (c *Client) Doc(ctx context.Context, id uint32) (sparse.Vector, bool, error) {
	resp, err := c.do(ctx, &request{Op: opDoc, ID: id})
	if err != nil {
		return sparse.Vector{}, false, err
	}
	return resp.Doc, resp.Known, nil
}

// Delete implements NodeClient.
func (c *Client) Delete(ctx context.Context, id uint32) error {
	return c.doEmpty(ctx, &request{Op: opDelete, ID: id})
}

// MergeNow implements NodeClient.
func (c *Client) MergeNow(ctx context.Context) error { return c.doEmpty(ctx, &request{Op: opMerge}) }

// Flush implements NodeClient.
func (c *Client) Flush(ctx context.Context) error { return c.doEmpty(ctx, &request{Op: opFlush}) }

// Retire implements NodeClient.
func (c *Client) Retire(ctx context.Context) error { return c.doEmpty(ctx, &request{Op: opRetire}) }

// Save implements NodeClient.
func (c *Client) Save(ctx context.Context) error { return c.doEmpty(ctx, &request{Op: opSave}) }

// Stats implements NodeClient.
func (c *Client) Stats(ctx context.Context) (node.Stats, error) {
	resp, err := c.do(ctx, &request{Op: opStats})
	if err != nil {
		return node.Stats{}, err
	}
	return resp.Stats, nil
}

// Close implements NodeClient: the connection is torn down, in-flight
// calls fail with a closed-client error, and no further dial is
// attempted. Idempotent.
func (c *Client) Close() error {
	c.mu.Lock()
	cur, closed := c.cur, c.closed
	c.cur, c.closed = nil, true
	c.mu.Unlock()
	if closed {
		return nil
	}
	return cur.close()
}

var _ NodeClient = (*Client)(nil)
