package plsh

import (
	"fmt"
	"math"
	"time"

	"context"

	"plsh/internal/cluster"
	"plsh/internal/core"
	"plsh/internal/node"
)

// Index is the one logical similarity-search surface of this package:
// a single node (*Store) and a coordinated fleet (*Cluster) implement it
// identically, so callers write against the abstraction and scale from
// one process to a hundred machines without changing a call site — the
// transparency the paper's deployment model (and SLASH after it) argues
// for. Document identifiers are uint64 global IDs everywhere: a Store is
// simply node 0, so its IDs are the node-local IDs zero-extended, and
// GlobalID/SplitGlobalID convert at the boundary when node placement
// matters.
//
// Request-scoped behavior — radius, top-k bound, per-node time budget,
// partial-result policy — travels with each Search call as SearchOptions
// rather than being frozen at construction, so one index serves
// heterogeneous traffic.
type Index interface {
	// Insert appends documents, returning their global IDs (parallel to
	// docs). Documents should be unit-normalized and non-empty.
	Insert(ctx context.Context, docs []Vector) ([]uint64, error)
	// Search answers one query under the given request-scoped options.
	Search(ctx context.Context, q Vector, opts ...SearchOption) (Result, error)
	// SearchBatch answers a batch under one set of options and reports
	// how the distributed execution went.
	SearchBatch(ctx context.Context, qs []Vector, opts ...SearchOption) ([]Result, Report, error)
	// Delete tombstones a document by global ID; never-inserted IDs
	// return ErrNotFound (possibly wrapped).
	Delete(ctx context.Context, id uint64) error
	// Doc fetches the stored vector for a global ID (shared storage; do
	// not modify) and whether that ID was ever inserted.
	Doc(ctx context.Context, id uint64) (Vector, bool, error)
	// Merge drives every document present at call time into the static
	// structure(s) and returns once that state is reached.
	Merge(ctx context.Context) error
	// Flush waits out any in-flight background merge without forcing one.
	Flush(ctx context.Context) error
	// Save checkpoints every durable node's data directory; nodes without
	// one fail the call with ErrNotDurable (possibly wrapped).
	Save(ctx context.Context) error
	// Stats returns one state snapshot per node (a Store returns one).
	Stats(ctx context.Context) ([]Stats, error)
	// Close releases node connections and journals.
	Close() error
}

// Compile-time proof that both implementations present the one surface.
var (
	_ Index = (*Store)(nil)
	_ Index = (*Cluster)(nil)
)

// Match is one Search answer: the document's global ID and its angular
// distance from the query in radians. On a Store the ID is the node-local
// ID zero-extended; on a Cluster it packs (replica group, local ID), as
// GlobalID does — use Node and Local (or SplitGlobalID) when placement
// matters. It is the coordinator's own answer type, so a batch's Matches
// are the coordinator's lists as they come.
type Match = cluster.Neighbor

// Result is the answer to one query: every reported document is truly
// within the effective radius, sorted ascending by (distance, ID) — and
// with WithK, bounded to the k nearest.
type Result struct {
	Matches []Match
}

// Report describes how a Search/SearchBatch broadcast went: per-group
// wall times and errors plus — when the request opted in with WithTrace —
// the per-replica attempt trace, with Complete/Stragglers/Failovers/
// HedgesWon helpers. A Store reports itself as the single group 0 (with
// one attempt when traced).
type Report = cluster.BatchReport

// searchSpec is the resolved form of a SearchOption list: the per-query
// parameter struct that flows to every node, plus the broadcast policy
// the coordinator applies around it.
type searchSpec struct {
	params node.SearchParams
	policy cluster.BatchOptions
	err    error
}

// SearchOption is a request-scoped knob for Search/SearchBatch. Options
// compose left to right; an invalid value surfaces as an error from the
// Search call itself rather than panicking or being silently clamped.
type SearchOption func(*searchSpec)

func (s *searchSpec) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// WithRadius overrides the construction-time Config.Radius for this query
// (radians, positive and finite). The hash tables are radius-agnostic —
// only candidate filtering consults it — so any radius is answerable by
// any index; recall guarantees still assume the tuned (K, M) geometry
// suits it.
func WithRadius(r float64) SearchOption {
	return func(s *searchSpec) {
		if !(r > 0) || math.IsInf(r, 1) {
			s.fail(fmt.Errorf("plsh: WithRadius(%v): radius must be positive and finite", r))
			return
		}
		s.params.Radius = r
	}
}

// WithK bounds the answer to the k nearest in-radius documents (k > 0).
// Each node prunes to its local k best, so the coordinator merges bounded
// partial lists instead of full answer sets.
func WithK(k int) SearchOption {
	return func(s *searchSpec) {
		if k <= 0 {
			s.fail(fmt.Errorf("plsh: WithK(%d): k must be positive", k))
			return
		}
		s.params.K = k
	}
}

// WithNodeTimeout bounds each replica attempt of the broadcast (d > 0),
// in addition to the call's context deadline. On a replicated cluster a
// timed-out attempt fails over to the group's next replica; combine with
// AllowPartial to trade completeness for bounded latency when a whole
// group times out — without it, one group timing out fails the call.
func WithNodeTimeout(d time.Duration) SearchOption {
	return func(s *searchSpec) {
		if d <= 0 {
			s.fail(fmt.Errorf("plsh: WithNodeTimeout(%v): timeout must be positive", d))
			return
		}
		s.policy.PerNodeTimeout = d
	}
}

// WithHedge arms the tail-latency hedge on a replicated cluster (d > 0):
// if a group's preferred replica has not answered within d, the next
// replica is raced against it and the first complete answer wins — Dean &
// Barroso's hedged request, hiding a slow replica without waiting for it
// to fail. Pick d around the expected p99 so hedges fire only on genuine
// stragglers. A no-op on a Store or a Replicas=1 cluster (there is no
// second copy to race); the Report's HedgesWon counts the searches the
// hedge rescued.
func WithHedge(d time.Duration) SearchOption {
	return func(s *searchSpec) {
		if d <= 0 {
			s.fail(fmt.Errorf("plsh: WithHedge(%v): delay must be positive", d))
			return
		}
		s.policy.Hedge = d
	}
}

// WithTrace materializes the Report's per-replica Attempts trace for this
// call — which member answered each group, which attempts failed over,
// which hedges won (the inputs of Failovers and HedgesWon). Off by
// default: an untraced broadcast records nothing per attempt, so the hot
// path carries no bookkeeping allocations for a trace nobody reads.
// Failover and hedging behave identically either way.
func WithTrace() SearchOption {
	return func(s *searchSpec) { s.policy.Trace = true }
}

// AllowPartial makes a Search succeed with the merged answers from the
// replica groups that responded instead of failing when some did not
// (a group fails only once every member has been tried); stragglers are
// visible in the Report. Without it the first group failure fails the
// call (all-or-nothing). A search no group answered still fails.
func AllowPartial() SearchOption {
	return func(s *searchSpec) { s.policy.Partial = true }
}

// resolveSearch folds an option list into a spec, surfacing the first
// invalid option as an error.
func resolveSearch(opts []SearchOption) (searchSpec, error) {
	var s searchSpec
	for _, o := range opts {
		o(&s)
	}
	return s, s.err
}

// matchesFromLocal converts node-local answers to Matches of nodeIdx.
func matchesFromLocal(nodeIdx int, ns []core.Neighbor) []Match {
	if len(ns) == 0 {
		return nil
	}
	out := make([]Match, len(ns))
	for i, nb := range ns {
		out[i] = Match{ID: GlobalID(nodeIdx, nb.ID), Dist: nb.Dist}
	}
	return out
}
