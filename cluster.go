package plsh

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"

	"plsh/internal/cluster"
	"plsh/internal/lshhash"
	"plsh/internal/node"
	"plsh/internal/transport"
)

// Placement selects how a Cluster places documents onto replica groups
// and which groups a search contacts — see Config.Placement.
type Placement = cluster.Placement

const (
	// PlacementScatter is the default: inserts round-robin over the
	// rolling window, searches broadcast to every group (the paper's
	// layout, bit-stable with pre-placement clusters).
	PlacementScatter = cluster.PlacementScatter
	// PlacementPartitioned routes inserts by LSH bucket signature and
	// searches to the recall-bounded probe set of groups that can hold
	// each query's in-radius neighbors.
	PlacementPartitioned = cluster.PlacementPartitioned
)

// Attempt is one replica RPC of a broadcast: which group and member it
// went to, whether it was a hedge, and how it ended. See Report.
type Attempt = cluster.Attempt

// InsertError reports a cluster Insert that failed midway: Placed[i] is
// true exactly when docs[i] was durably accepted by every member of its
// replica group before the failure, and IDs[i] is then its global ID.
// Unwrap exposes the cause, so errors.Is keeps working.
type InsertError = cluster.InsertError

// GlobalID packs (group, local ID) into one opaque document identifier.
// With Replicas = 1 the group index is exactly the node index, so
// single-copy IDs are unchanged from the pre-replication layout.
func GlobalID(group int, local uint32) uint64 { return cluster.GlobalID(group, local) }

// SplitGlobalID inverts GlobalID.
func SplitGlobalID(g uint64) (group int, local uint32) { return cluster.SplitGlobalID(g) }

// Cluster coordinates many PLSH nodes arranged into replica groups:
// queries broadcast to every group — one member each, with failover to
// sibling replicas and an optional latency hedge (WithHedge) — and merge;
// inserts mirror each batch onto every member of a rolling window of
// WindowM groups, and when the window wraps, the groups holding the
// oldest data are erased — giving the stream well-defined expiration
// (the paper runs 100 single-copy nodes with a window of 4 to absorb
// 400M tweets/day; Config.Replicas = 1 reproduces that layout exactly).
//
// Every operation takes a context.Context; deadlines and cancellation
// abort a broadcast early instead of waiting on the slowest node.
type Cluster struct {
	c *cluster.Cluster
}

// NewCluster builds an in-process cluster of identical nodes, each with
// cfg's parameters and capacity, arranged into nodes/cfg.Replicas groups,
// with an insert window of windowM groups (0 → min(4, groups)). It is the
// context-less convenience shim over OpenCluster and runs recovery under
// context.Background() — unbounded, uncancelable; use OpenCluster to
// bound it.
func NewCluster(nodes int, windowM int, cfg Config) (*Cluster, error) {
	return OpenCluster(context.Background(), nodes, windowM, cfg)
}

// OpenCluster builds an in-process cluster of identical nodes under one
// caller-supplied context that consistently bounds every node's recovery
// and the initial capacity exchange — canceling it aborts construction
// mid-fleet instead of leaving some nodes replaying journals under a
// context nobody holds.
//
// nodes counts endpoints; cfg.Replicas arranges them into nodes/Replicas
// mirrored groups (nodes must divide evenly), and windowM counts groups.
//
// With cfg.Dir set the cluster is durable: node i lives in
// cfg.Dir/node-NNN (nodes must never share a data directory, replicas
// included), each is recovered on construction, and Save checkpoints
// them all.
func OpenCluster(ctx context.Context, nodes int, windowM int, cfg Config) (*Cluster, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	opts, err := clusterOptions(cfg, nodes, windowM)
	if err != nil {
		return nil, err
	}
	clients := make([]transport.NodeClient, nodes)
	for i := range clients {
		ncfg := cfg.nodeConfig()
		if cfg.Dir != "" {
			ncfg.Dir = filepath.Join(cfg.Dir, fmt.Sprintf("node-%03d", i))
		}
		n, err := node.Open(ctx, ncfg)
		if err != nil {
			// Durable nodes hold journal file handles that would otherwise
			// leak for the process lifetime (mid-fleet cancellation is an
			// advertised use).
			closeClients(clients)
			return nil, fmt.Errorf("plsh: node %d: %w", i, err)
		}
		clients[i] = transport.NewLocal(n)
	}
	return newCluster(ctx, clients, opts)
}

// clusterOptions is the coordination OpenCluster and DialCluster share, one
// construction so the two cannot drift: it arranges endpoints under the
// normalized cfg — cfg.Replicas groups them, and under
// PlacementPartitioned cfg's geometry builds the signature router. Both
// call it before opening or dialing any node, so a config it refuses — an
// endpoint count cfg.Replicas does not divide, or more groups than a
// signature can route — costs no node and no connection. The
// family built here is only how the fleet's geometry reaches NewRouter,
// which derives its own routing family from the Params; no table
// hyperplane is ever drawn in the coordinator.
func clusterOptions(cfg Config, endpoints, windowM int) (cluster.Options, error) {
	opts := cluster.Options{WindowM: windowM, Replicas: cfg.Replicas, Placement: cfg.Placement}
	if endpoints%cfg.Replicas != 0 {
		return opts, fmt.Errorf("plsh: %d nodes cannot form groups of %d replicas", endpoints, cfg.Replicas)
	}
	if cfg.Placement != PlacementPartitioned {
		return opts, nil
	}
	fam, err := lshhash.NewFamily(lshhash.Params{Dim: cfg.Dim, K: cfg.K, M: cfg.M, Seed: cfg.Seed})
	if err != nil {
		return opts, fmt.Errorf("plsh: %w", err)
	}
	opts.Router, err = cluster.NewRouter(fam, cluster.RouterConfig{
		Groups: endpoints / cfg.Replicas,
		Radius: cfg.Radius,
		Recall: cfg.RoutingRecall,
	})
	if err != nil {
		return opts, fmt.Errorf("plsh: %w", err)
	}
	return opts, nil
}

// newCluster coordinates clients under opts, closing every client when
// that fails.
func newCluster(ctx context.Context, clients []transport.NodeClient, opts cluster.Options) (*Cluster, error) {
	c, err := cluster.NewWithOptions(ctx, clients, opts)
	if err != nil {
		closeClients(clients)
		return nil, fmt.Errorf("plsh: %w", err)
	}
	return &Cluster{c: c}, nil
}

// closeClients closes every client that was opened.
func closeClients(clients []transport.NodeClient) {
	for _, c := range clients {
		if c != nil {
			c.Close()
		}
	}
}

// DialOption configures DialCluster.
type DialOption func(*dialSpec)

// dialSpec is what the DialOptions set: the Config DialCluster
// coordinates under. WithReplicas sets its Replicas; WithPartitioned
// replaces the rest with the fleet's normalized geometry and
// PlacementPartitioned.
type dialSpec struct {
	cfg Config
	err error
}

// WithReplicas arranges the dialed endpoints into groups of r mirrored
// replicas (len(addrs) must divide evenly; members of one group are
// adjacent in addrs). The node servers of one group must be launched
// with identical parameters — same -seed above all — so they answer as
// true mirrors. Default 1, the single-copy layout.
func WithReplicas(r int) DialOption {
	return func(s *dialSpec) {
		if r <= 0 {
			s.err = fmt.Errorf("plsh: WithReplicas(%d): replicas must be positive", r)
			return
		}
		s.cfg.Replicas = r
	}
}

// WithPartitioned switches the dialed cluster to partitioned placement
// (see Config.Placement): the coordinator routes inserts and searches by
// LSH bucket signature instead of broadcasting. Remote node stats do not
// carry hash parameters, so cfg must restate the fleet's LSH geometry —
// Dim, K, M, and above all Seed exactly as the plsh-node servers were
// launched with (mismatched parameters break placement silently), plus
// optional Radius and RoutingRecall for the probe-set construction.
// cfg.Replicas is ignored here; grouping stays with WithReplicas.
func WithPartitioned(cfg Config) DialOption {
	return func(s *dialSpec) {
		cfg, err := cfg.normalize()
		if err != nil {
			s.err = err
			return
		}
		cfg.Placement = PlacementPartitioned
		cfg.Replicas = s.cfg.Replicas
		s.cfg = cfg
	}
}

// DialCluster connects to remote plsh-node servers (see cmd/plsh-node) and
// coordinates them exactly like an in-process cluster. All nodes are
// dialed in parallel; ctx bounds the dials and the initial capacity
// exchange. On any failure every established connection is closed.
//
// Connections self-heal: a node that dies mid-run fails its in-flight
// calls (replica failover masks that when WithReplicas(r>1) is set), and
// once the process is back — recovered from its journal — the next call
// to it dials a fresh connection under that call's ctx, so a restarted
// replica rejoins without rebuilding the coordinator. windowM counts
// replica groups.
func DialCluster(ctx context.Context, addrs []string, windowM int, opts ...DialOption) (*Cluster, error) {
	spec := dialSpec{cfg: Config{Replicas: 1}}
	for _, o := range opts {
		o(&spec)
	}
	if spec.err != nil {
		return nil, spec.err
	}
	copts, err := clusterOptions(spec.cfg, len(addrs), windowM)
	if err != nil {
		return nil, err
	}
	clients := make([]transport.NodeClient, len(addrs))
	errs := make([]error, len(addrs))
	var wg sync.WaitGroup
	for i, addr := range addrs {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			c, err := transport.Dial(ctx, addr)
			if err != nil {
				errs[i] = fmt.Errorf("plsh: dial %s: %w", addr, err)
				return
			}
			clients[i] = c
		}(i, addr)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			closeClients(clients)
			return nil, err
		}
	}
	return newCluster(ctx, clients, copts)
}

// Insert distributes documents over the insert window, expiring the
// oldest groups' contents as the window wraps. Each document is written
// to every member of its target group — journal-before-ack on each
// durable member — before its global ID is assigned. Returned global IDs
// parallel docs. Documents should be unit-normalized; Insert rejects
// empty vectors, exactly like a Store.
//
// A mid-batch failure returns an *InsertError reporting exactly which
// documents were durably placed (with their IDs) before the error.
func (cl *Cluster) Insert(ctx context.Context, docs []Vector) ([]uint64, error) {
	if err := validateDocs(docs); err != nil {
		return nil, err
	}
	return cl.c.Insert(ctx, docs)
}

// Search answers one query under request-scoped options, broadcast to
// every replica group: one member answers for its group — failing over
// to sibling replicas on error, racing one with WithHedge — applying the
// effective radius (WithRadius, or the construction Config.Radius)
// locally, pruned to the k best with WithK, and the coordinator merges the
// bounded sorted partial lists. Matches come back ascending by (distance,
// ID) and are replica-agnostic. WithNodeTimeout and AllowPartial trade
// completeness for bounded latency; use SearchBatch to also observe the
// per-group, per-attempt Report.
func (cl *Cluster) Search(ctx context.Context, q Vector, opts ...SearchOption) (Result, error) {
	res, _, err := cl.SearchBatch(ctx, []Vector{q}, opts...)
	if err != nil {
		return Result{}, err
	}
	return res[0], nil
}

// SearchBatch answers many queries in one broadcast under one set of
// request-scoped options and reports per-group wall times, outcomes, and
// the per-replica attempt trace (who answered, which attempts failed
// over, which hedges won) — the production path when a bounded-latency,
// possibly-partial answer beats waiting out a straggler (AllowPartial),
// and the load-balance measure of Fig. 9 either way.
func (cl *Cluster) SearchBatch(ctx context.Context, qs []Vector, opts ...SearchOption) ([]Result, Report, error) {
	spec, err := resolveSearch(opts)
	if err != nil {
		return nil, Report{}, err
	}
	res, report, err := cl.c.Search(ctx, qs, spec.params, spec.policy)
	if err != nil {
		return nil, report, err
	}
	out := make([]Result, len(res))
	for i, ms := range res {
		out[i] = Result{Matches: ms}
	}
	return out, report, nil
}

// Delete removes a document by its global ID from every member of its
// replica group (a tombstone reaching only some mirrors would resurrect
// the document on failover). An ID naming a nonexistent group or a
// never-inserted document returns an error wrapping ErrNotFound. A
// member failure fails the call with the tombstone possibly applied on
// some members only; retry until nil to restore mirror agreement.
func (cl *Cluster) Delete(ctx context.Context, g uint64) error { return cl.c.Delete(ctx, g) }

// Doc fetches the stored vector for a global ID (shared storage on
// in-process clusters; do not modify) from any live member of the group
// that holds it — failing over to sibling replicas on transport errors —
// with that member's authoritative answer to whether the local ID was
// ever inserted. IDs naming a nonexistent group are simply unknown;
// failure of every member is an error.
func (cl *Cluster) Doc(ctx context.Context, id uint64) (Vector, bool, error) {
	if err := ctx.Err(); err != nil {
		return Vector{}, false, err
	}
	v, known, err := cl.c.Doc(ctx, id)
	if err != nil {
		return Vector{}, false, fmt.Errorf("plsh: %w", err)
	}
	return v, known, nil
}

// Save checkpoints every node's data directory in parallel (see
// Store.Save): when it returns nil, a restart of any node — or the whole
// cluster — recovers exactly the acknowledged contents. Nodes launched
// without a data directory (plsh-node without -data) fail the call with
// ErrNotDurable (possibly wrapped).
func (cl *Cluster) Save(ctx context.Context) error { return cl.c.SaveAll(ctx) }

// Merge drives every node to a fully static state, in parallel. Each
// node's merge runs in the background on that node, so queries broadcast
// while Merge is in flight keep being answered from pre-merge snapshots;
// only the Merge caller waits for quiescence.
func (cl *Cluster) Merge(ctx context.Context) error { return cl.c.MergeAll(ctx) }

// Flush waits for every node's in-flight background merge (if any) to
// finish without forcing new ones.
func (cl *Cluster) Flush(ctx context.Context) error { return cl.c.FlushAll(ctx) }

// Stats returns per-node snapshots, gathered in parallel — one entry per
// endpoint, group-major: the members of group g are entries
// [g·Replicas, (g+1)·Replicas).
func (cl *Cluster) Stats(ctx context.Context) ([]Stats, error) { return cl.c.Stats(ctx) }

// CoordStats is the coordinator's own always-on telemetry: lifetime
// counters of batches answered, failovers, and hedges launched/won,
// maintained with cheap atomics on the search path regardless of
// WithTrace. Unlike Stats it describes the coordinator (client side),
// not the nodes, so it needs no RPC.
type CoordStats = cluster.CoordStats

// CoordStats returns the coordinator's accumulated telemetry.
func (cl *Cluster) CoordStats() CoordStats { return cl.c.CoordStats() }

// NumNodes returns the endpoint count (groups × replicas).
func (cl *Cluster) NumNodes() int { return cl.c.NumNodes() }

// NumGroups returns the replica-group count — the unit of data placement,
// global IDs, and broadcast reports.
func (cl *Cluster) NumGroups() int { return cl.c.NumGroups() }

// Replicas returns R, the mirrored members per group.
func (cl *Cluster) Replicas() int { return cl.c.Replicas() }

// Close releases node connections; durable in-process nodes also release
// their journals (draining in-flight merges so final checkpoints land).
func (cl *Cluster) Close() error { return cl.c.Close() }
