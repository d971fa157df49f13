// Package transport abstracts how the PLSH coordinator reaches its nodes.
//
// The paper runs 100 nodes over MPI/Infiniband (§8) and shows query
// communication is under 1% of runtime. This package provides the same
// dataflow behind a small interface with two implementations:
//
//   - Local: direct in-process calls to a *node.Node — zero-copy, used by
//     the in-process cluster simulation and most experiments;
//   - Client/Serve: a request-ID-multiplexed TCP wire protocol of
//     length-prefixed binary frames, one hand-written codec for every op
//     (codec.go; cmd/plsh-node is the server binary), that sustains many
//     concurrent RPCs per connection, exercising real serialization on
//     localhost or a LAN. A Client re-dials its node once its connection
//     dies, so a restarted node rejoins without the coordinator being
//     rebuilt.
//
// Every RPC takes a context.Context: deadlines and cancellation are
// enforced at the caller (a canceled call stops waiting immediately; its
// response, if one later arrives, is discarded), so a slow or dead node
// never stalls the coordinator longer than the caller allows.
//
// Both implementations satisfy NodeClient, so cluster code is
// transport-agnostic — and Serve accepts any NodeClient as its backend,
// which also makes proxying and test fakes trivial. NodeClient has one
// query method, Search, carried by opSearch. The two query ops that
// predate it are gone: their numbers stay reserved as blank placeholders
// in wire.go's op block, and a server answers them as unknown ops.
package transport

import (
	"context"
	"errors"

	"plsh/internal/core"
	"plsh/internal/node"
	"plsh/internal/sparse"
)

// NodeClient is the coordinator's view of one PLSH node. Implementations
// must be safe for concurrent use; every call honors ctx cancellation and
// deadlines.
type NodeClient interface {
	// Insert appends documents, returning node-local IDs. Returns
	// node.ErrFull (possibly wrapped) if capacity would be exceeded.
	Insert(ctx context.Context, vs []sparse.Vector) ([]uint32, error)
	// Search answers a batch of queries under one set of request-scoped
	// parameters (per-query radius, top-k bound), each answer list in
	// canonical ascending (distance, id) order. A successful reply always
	// has exactly len(qs) entries. It is the one query method of the
	// interface: a single query is a batch of one, a top-k query sets p.K.
	// The answer is an ordinary value the caller owns; nothing is handed
	// back.
	Search(ctx context.Context, qs []sparse.Vector, p node.SearchParams) ([][]core.Neighbor, error)
	// Doc fetches the stored vector for a node-local ID and the node's
	// authoritative answer to whether that id was ever inserted.
	Doc(ctx context.Context, id uint32) (sparse.Vector, bool, error)
	// Delete marks a node-local ID deleted.
	Delete(ctx context.Context, id uint32) error
	// MergeNow forces every row present at call time into the static
	// structure and returns once that state is reached; queries keep
	// flowing against the node's snapshots while the merge runs.
	MergeNow(ctx context.Context) error
	// Flush waits for any in-flight background merge to finish without
	// forcing one.
	Flush(ctx context.Context) error
	// Retire erases the node's contents.
	Retire(ctx context.Context) error
	// Save forces a durable checkpoint of the node's data directory:
	// quiesce every document into the static structure, write the
	// snapshot, truncate the journal. Returns node.ErrNotDurable
	// (possibly wrapped) when the node has no data directory.
	Save(ctx context.Context) error
	// Stats returns the node's state snapshot.
	Stats(ctx context.Context) (node.Stats, error)
	// Close releases the connection (a no-op for Local).
	Close() error
}

// Local adapts a *node.Node to NodeClient with direct calls. Context is
// checked on entry even for the constant-time operations so a canceled
// coordinator sees uniform behavior across transports.
type Local struct {
	N *node.Node
}

// NewLocal wraps n.
func NewLocal(n *node.Node) *Local { return &Local{N: n} }

// Insert implements NodeClient.
func (l *Local) Insert(ctx context.Context, vs []sparse.Vector) ([]uint32, error) {
	return l.N.Insert(ctx, vs)
}

// Search implements NodeClient.
func (l *Local) Search(ctx context.Context, qs []sparse.Vector, p node.SearchParams) ([][]core.Neighbor, error) {
	return l.N.SearchBatch(ctx, qs, p)
}

// Doc implements NodeClient.
func (l *Local) Doc(ctx context.Context, id uint32) (sparse.Vector, bool, error) {
	if err := ctx.Err(); err != nil {
		return sparse.Vector{}, false, err
	}
	v, known := l.N.Doc(id)
	return v, known, nil
}

// Delete implements NodeClient.
func (l *Local) Delete(ctx context.Context, id uint32) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return l.N.Delete(id)
}

// MergeNow implements NodeClient.
func (l *Local) MergeNow(ctx context.Context) error {
	return l.N.MergeNow(ctx)
}

// Flush implements NodeClient.
func (l *Local) Flush(ctx context.Context) error {
	return l.N.Flush(ctx)
}

// Retire implements NodeClient.
func (l *Local) Retire(ctx context.Context) error {
	return l.N.Retire(ctx)
}

// Save implements NodeClient.
func (l *Local) Save(ctx context.Context) error {
	return l.N.Save(ctx)
}

// Stats implements NodeClient.
func (l *Local) Stats(ctx context.Context) (node.Stats, error) {
	if err := ctx.Err(); err != nil {
		return node.Stats{}, err
	}
	return l.N.Stats(), nil
}

// Close implements NodeClient: a durable node's journal is released (its
// in-flight merge drained so the final checkpoint lands); in-memory nodes
// are untouched. Idempotent.
func (l *Local) Close() error { return l.N.Close() }

var _ NodeClient = (*Local)(nil)

// errClosed is returned by remote clients after Close.
var errClosed = errors.New("transport: client closed")
