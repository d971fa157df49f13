package cluster

import (
	"context"
	"sync"
	"testing"
	"time"

	"plsh/internal/core"
	"plsh/internal/lshhash"
	"plsh/internal/node"
	"plsh/internal/sparse"
	"plsh/internal/transport"
)

// callerKey marks the caller's context: a member call whose ctx lacks it
// was made under a context the coordinator minted instead of deriving it
// from the one it was handed, so the caller's deadline and cancellation
// never reach that call.
type callerKey struct{}

// ctxMember records every call that reaches it without the caller's
// value, by method name.
type ctxMember struct {
	transport.NodeClient

	mu   sync.Mutex
	lost []string
}

func (m *ctxMember) saw(ctx context.Context, op string) {
	if ctx.Value(callerKey{}) == nil {
		m.mu.Lock()
		m.lost = append(m.lost, op)
		m.mu.Unlock()
	}
}

func (m *ctxMember) Insert(ctx context.Context, vs []sparse.Vector) ([]uint32, error) {
	m.saw(ctx, "Insert")
	return m.NodeClient.Insert(ctx, vs)
}

func (m *ctxMember) Search(ctx context.Context, qs []sparse.Vector, p node.SearchParams) ([][]core.Neighbor, error) {
	m.saw(ctx, "Search")
	return m.NodeClient.Search(ctx, qs, p)
}

func (m *ctxMember) Doc(ctx context.Context, id uint32) (sparse.Vector, bool, error) {
	m.saw(ctx, "Doc")
	return m.NodeClient.Doc(ctx, id)
}

func (m *ctxMember) Delete(ctx context.Context, id uint32) error {
	m.saw(ctx, "Delete")
	return m.NodeClient.Delete(ctx, id)
}

func (m *ctxMember) MergeNow(ctx context.Context) error {
	m.saw(ctx, "MergeNow")
	return m.NodeClient.MergeNow(ctx)
}

func (m *ctxMember) Flush(ctx context.Context) error {
	m.saw(ctx, "Flush")
	return m.NodeClient.Flush(ctx)
}

func (m *ctxMember) Retire(ctx context.Context) error {
	m.saw(ctx, "Retire")
	return m.NodeClient.Retire(ctx)
}

func (m *ctxMember) Save(ctx context.Context) error {
	m.saw(ctx, "Save")
	return m.NodeClient.Save(ctx)
}

func (m *ctxMember) Stats(ctx context.Context) (node.Stats, error) {
	m.saw(ctx, "Stats")
	return m.NodeClient.Stats(ctx)
}

// TestMemberCallsCarryCallerContext: every member call the coordinator
// makes, from construction through every method that reaches a member,
// runs under a context derived from its caller's, under scatter and under
// partitioned placement. Search runs plain, hedged and with a per-node
// timeout: the timeout derives each attempt's context afresh, so the plain
// form is the one that shows an attempt's own.
func TestMemberCallsCarryCallerContext(t *testing.T) {
	for _, placement := range []Placement{PlacementScatter, PlacementPartitioned} {
		t.Run(placement.String(), func(t *testing.T) {
			ctx := context.WithValue(bg, callerKey{}, true)
			const groups, replicas = 2, 2
			members := make([]*ctxMember, groups*replicas)
			clients := make([]transport.NodeClient, len(members))
			for i := range members {
				n, err := node.Open(bg, node.Config{
					Params:   lshhash.Params{Dim: 2000, K: 8, M: 6, Seed: 42},
					Capacity: 200,
					Build:    core.Defaults(),
					Query:    core.QueryDefaults(),
					Dir:      t.TempDir(),
				})
				if err != nil {
					t.Fatal(err)
				}
				members[i] = &ctxMember{NodeClient: transport.NewLocal(n)}
				clients[i] = members[i]
			}
			opts := Options{Replicas: replicas, Placement: placement}
			if placement == PlacementPartitioned {
				opts.Router = testRouter(t, RouterConfig{Groups: groups})
			}
			c, err := NewWithOptions(ctx, clients, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			docs := testDocs(120, 61)
			ids, err := c.Insert(ctx, docs)
			if err != nil {
				t.Fatal(err)
			}
			for _, bo := range []BatchOptions{{}, {Hedge: time.Microsecond}, {PerNodeTimeout: time.Minute}} {
				if _, _, err := c.Search(ctx, docs[:8], node.SearchParams{}, bo); err != nil {
					t.Fatalf("search %+v: %v", bo, err)
				}
			}
			if err := c.Delete(ctx, ids[0]); err != nil {
				t.Fatal(err)
			}
			if _, _, err := c.Doc(ctx, ids[1]); err != nil {
				t.Fatal(err)
			}
			for name, barrier := range map[string]func(context.Context) error{
				"MergeAll": c.MergeAll, "FlushAll": c.FlushAll, "SaveAll": c.SaveAll,
			} {
				if err := barrier(ctx); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
			if _, err := c.Stats(ctx); err != nil {
				t.Fatal(err)
			}
			for i, m := range members {
				m.mu.Lock()
				if len(m.lost) > 0 {
					t.Errorf("member %d was called without the caller's context by %v", i, m.lost)
				}
				m.mu.Unlock()
			}
		})
	}
}
