package transport

import (
	"context"
	"sync"

	"plsh/internal/core"
	"plsh/internal/node"
	"plsh/internal/sparse"
)

// Redial is a NodeClient over TCP that survives connection loss: it wraps
// a Client and, once the underlying connection dies terminally (send or
// receive failure — a crashed peer, a dropped link), the next call dials
// a fresh connection to the same address instead of failing forever.
//
// Redial never retries a call by itself: the call that observed the
// broken connection still fails, because retry policy belongs to the
// caller (the cluster's replica failover decides whether to try a
// sibling instead of hammering the same endpoint). What Redial repairs is
// the path for subsequent calls — which is exactly what lets a SIGKILLed
// node that restarted from its journal rejoin a running cluster without
// the coordinator being rebuilt.
//
// A re-dial happens lazily inside the failing caller's successor, bounded
// by that call's context. The dial is serialized under a mutex, so a dead
// endpoint costs one connection attempt at a time, not one per concurrent
// caller; calls that arrive during the dial wait for its outcome (they
// would only race to the same dead address otherwise).
type Redial struct {
	addr string

	mu     sync.Mutex
	cur    *Client
	closed bool
}

// NewRedial dials addr eagerly — construction fails fast on an
// unreachable node, like Dial — and returns the reconnecting client.
func NewRedial(ctx context.Context, addr string) (*Redial, error) {
	c, err := Dial(ctx, addr)
	if err != nil {
		return nil, err
	}
	return &Redial{addr: addr, cur: c}, nil
}

// client returns the current healthy connection, dialing a new one under
// ctx if the previous connection died. After Close it fails without
// dialing.
func (r *Redial) client(ctx context.Context) (*Client, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, errClosed
	}
	if r.cur != nil && !r.cur.Broken() {
		return r.cur, nil
	}
	if r.cur != nil {
		//plshvet:ignore lockorder single-flight reconnect: r.mu serializes close+dial so exactly one goroutine repairs the link
		r.cur.Close()
		r.cur = nil
	}
	//plshvet:ignore lockorder single-flight reconnect: the dial stays under r.mu so concurrent callers wait for one new connection instead of racing dials
	c, err := Dial(ctx, r.addr)
	if err != nil {
		return nil, err
	}
	r.cur = c
	return c, nil
}

// Insert implements NodeClient.
func (r *Redial) Insert(ctx context.Context, vs []sparse.Vector) ([]uint32, error) {
	c, err := r.client(ctx)
	if err != nil {
		return nil, err
	}
	return c.Insert(ctx, vs)
}

// Search implements NodeClient.
func (r *Redial) Search(ctx context.Context, qs []sparse.Vector, p node.SearchParams) ([][]core.Neighbor, error) {
	c, err := r.client(ctx)
	if err != nil {
		return nil, err
	}
	return c.Search(ctx, qs, p)
}

// Doc implements NodeClient.
func (r *Redial) Doc(ctx context.Context, id uint32) (sparse.Vector, bool, error) {
	c, err := r.client(ctx)
	if err != nil {
		return sparse.Vector{}, false, err
	}
	return c.Doc(ctx, id)
}

// Delete implements NodeClient.
func (r *Redial) Delete(ctx context.Context, id uint32) error {
	c, err := r.client(ctx)
	if err != nil {
		return err
	}
	return c.Delete(ctx, id)
}

// MergeNow implements NodeClient.
func (r *Redial) MergeNow(ctx context.Context) error {
	c, err := r.client(ctx)
	if err != nil {
		return err
	}
	return c.MergeNow(ctx)
}

// Flush implements NodeClient.
func (r *Redial) Flush(ctx context.Context) error {
	c, err := r.client(ctx)
	if err != nil {
		return err
	}
	return c.Flush(ctx)
}

// Retire implements NodeClient.
func (r *Redial) Retire(ctx context.Context) error {
	c, err := r.client(ctx)
	if err != nil {
		return err
	}
	return c.Retire(ctx)
}

// Save implements NodeClient.
func (r *Redial) Save(ctx context.Context) error {
	c, err := r.client(ctx)
	if err != nil {
		return err
	}
	return c.Save(ctx)
}

// Stats implements NodeClient.
func (r *Redial) Stats(ctx context.Context) (node.Stats, error) {
	c, err := r.client(ctx)
	if err != nil {
		return node.Stats{}, err
	}
	return c.Stats(ctx)
}

// Close implements NodeClient: the current connection is torn down and no
// further dial is attempted. Idempotent.
func (r *Redial) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	r.closed = true
	if r.cur == nil {
		return nil
	}
	//plshvet:ignore lockorder close is terminal: holding r.mu here keeps a racing redial from resurrecting the connection
	err := r.cur.Close()
	r.cur = nil
	return err
}

var _ NodeClient = (*Redial)(nil)
