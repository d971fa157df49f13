// Package cluster implements the multi-node PLSH system of §4 and §5.3:
// a coordinator that sends queries to the replica groups that can hold
// their neighbors — every group under the paper's scatter placement — and
// merges the partial answers, and a rolling window of M insert groups that
// gives the system well-defined expiration of the oldest data.
//
// Data is partitioned by document, not by table (§5.3's "second scheme"):
// each group holds all L tables over its own subset, so queries need no
// cross-node candidate deduplication and group count scales with data
// size. Inserts go round-robin to the M window groups; when the window's
// groups reach capacity the window advances, and on wrap-around the groups
// it advances onto — necessarily holding the oldest data — are retired
// (erased) before accepting new inserts (§6, Fig. 1).
//
// Placement is one step per direction: assign on the write side, once per
// Insert round, and plan on the read side, once per Search. Under scatter
// assign fills the window as above and plan sends every query to every
// group; under partitioned placement (routing.go) assign sends each
// document to the group its signature names — refusing, before anything
// of the round is written, a routed share larger than its group's room —
// and plan sends each query to its probe set. One insert loop and one
// search path serve both.
//
// The paper runs every shard single-copy and simply loses a dead node's
// documents (§6). This coordinator instead arranges its N endpoints into
// N/R replica groups of R mirrored members each (R = 1 reproduces the
// paper exactly): inserts are written to every member of the target group
// — journal-before-ack on each durable member — while a search sends each
// group's sub-query to one preferred member, fails over to the next on
// error or timeout, and can optionally hedge a slow member with a raced
// second request (BatchOptions.Hedge, the "tail at scale" trade). Answers
// are replica-agnostic: members are deterministic mirrors (identical
// batches in identical order under one hash-family seed), so any member
// of a group returns the same (id, distance) list.
//
// Unlike the paper's MPI coordinator, every operation takes a
// context.Context: a deadline or cancellation aborts a broadcast early
// instead of waiting on the slowest node, and Search can trade
// completeness for latency with a per-node timeout and a partial-results
// policy.
package cluster

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"plsh/internal/core"
	"plsh/internal/node"
	"plsh/internal/sparse"
	"plsh/internal/transport"
)

// Neighbor is a cluster-level query answer, and the public package's
// Match: the document's global ID, GlobalID(group, local ID), and its
// angular distance. With Replicas = 1 the group index is exactly the node
// index.
type Neighbor struct {
	ID   uint64 // GlobalID(group, local ID)
	Dist float64
}

// Node returns the index of the replica group holding the document: every
// member of that group stores it, and it is below NumGroups. With
// Replicas = 1 a group is one node, so this is the node index.
func (n Neighbor) Node() int { g, _ := SplitGlobalID(n.ID); return g }

// Local returns the document's local ID, the same on every member of its
// replica group.
func (n Neighbor) Local() uint32 { _, l := SplitGlobalID(n.ID); return l }

// compareNeighbors is the cluster-wide presentation order: ascending
// distance, ties by global ID — by group, then by group-local ID, since
// the group is the ID's high half.
func compareNeighbors(a, b Neighbor) int {
	if c := cmp.Compare(a.Dist, b.Dist); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

// GlobalID packs (group, local ID) into one opaque identifier. With
// Replicas = 1 the group index is the node index, so single-copy IDs are
// bit-identical to the pre-replication layout.
func GlobalID(group int, local uint32) uint64 {
	return uint64(group)<<32 | uint64(local)
}

// SplitGlobalID inverts GlobalID.
func SplitGlobalID(g uint64) (group int, local uint32) {
	return int(g >> 32), uint32(g)
}

// BatchOptions is the failure policy for a broadcast.
type BatchOptions struct {
	// PerNodeTimeout bounds each replica attempt's RPC in addition to the
	// call's context deadline; zero means no extra per-attempt bound. A
	// timed-out attempt fails over to the group's next replica like any
	// other failure.
	PerNodeTimeout time.Duration
	// Partial, when set, returns the merged answers from the groups that
	// responded instead of failing the whole batch when some did not;
	// failed or timed-out groups are reported in the BatchReport. When
	// unset, the first group failure (every replica exhausted) cancels the
	// rest of the broadcast and fails the call (all-or-nothing).
	Partial bool
	// Hedge, when > 0 on a replicated cluster, arms the tail-latency
	// hedge: if a group's preferred replica has not answered within Hedge,
	// the next replica is raced against it and the first complete answer
	// wins. The loser is canceled. No-op with Replicas = 1.
	Hedge time.Duration
	// Trace, when set, materializes BatchReport.Attempts — the per-replica
	// RPC trace behind Failovers and HedgesWon. Off (the default) the
	// broadcast records nothing per attempt, keeping the hot path free of
	// bookkeeping allocations; failover and hedging behave identically
	// either way.
	Trace bool
}

// Attempt is one replica RPC of a broadcast: which group and member it
// went to, why it was launched (first try, failover, or hedge), how long
// it ran, and how it ended. The winning attempt of each group has Won set
// and a nil Err.
type Attempt struct {
	Group   int           // replica group the attempt belongs to
	Replica int           // member index within the group
	Node    int           // global endpoint index (Group·R + Replica)
	Hedged  bool          // launched by the hedge timer, not by a failure
	Won     bool          // this attempt's answer was used
	Time    time.Duration // wall time of this attempt's RPC
	Err     error         // nil for the winner; the failure otherwise
}

// BatchReport describes how a broadcast went: per-group wall time until
// the group resolved (the load-balance measure of Fig. 9; max/avg ≤ 1.3
// in the paper), per-group errors (nil for groups that answered), and the
// full per-attempt trace — which replica answered, which failed over,
// which hedges won.
type BatchReport struct {
	Times []time.Duration
	Errs  []error
	// Attempts lists the replica RPCs observed before each group
	// resolved, grouped by group — recorded only when the request asked
	// for it (BatchOptions.Trace; WithTrace at the public surface), nil
	// otherwise. A losing attempt still in flight when its group's answer
	// lands (a hedged-out primary, a cancellation casualty) is canceled
	// without being recorded, so this is the trace of outcomes the
	// broadcast acted on, not an exhaustive RPC log. With Replicas = 1 it
	// is one attempt per node.
	Attempts []Attempt
	// RoutedGroups and PrunedGroups measure data-aware routing on a
	// partitioned-placement cluster, recorded only when the request asked
	// for the trace (BatchOptions.Trace): summed over the batch's queries,
	// RoutedGroups counts the (query, group) probe pairs the router
	// contacted and PrunedGroups the pairs it proved unnecessary — they
	// always sum to len(queries)·groups. A query whose probe set
	// degenerated falls back to the full broadcast and contributes every
	// group to RoutedGroups. Both are zero on a scatter-placement cluster
	// (a broadcast probes everything by definition) and on untraced calls.
	RoutedGroups int
	PrunedGroups int
}

// Complete reports whether every group answered.
func (r BatchReport) Complete() bool {
	for _, err := range r.Errs {
		if err != nil {
			return false
		}
	}
	return true
}

// Stragglers lists the groups that failed or timed out (every replica
// exhausted).
func (r BatchReport) Stragglers() []int {
	var out []int
	for i, err := range r.Errs {
		if err != nil {
			out = append(out, i)
		}
	}
	return out
}

// Failovers counts attempts launched because an earlier replica of the
// same group failed (hedges excluded). It reads the Attempts trace, so it
// reports 0 unless the broadcast ran with Trace set.
func (r BatchReport) Failovers() int {
	primary := map[int]bool{}
	n := 0
	for _, a := range r.Attempts {
		if a.Hedged {
			continue
		}
		if primary[a.Group] {
			n++
		} else {
			primary[a.Group] = true
		}
	}
	return n
}

// HedgesWon counts hedged attempts whose answer won their group — the
// searches the hedge actually rescued from a slow replica. It reads the
// Attempts trace, so it reports 0 unless the broadcast ran with Trace set.
func (r BatchReport) HedgesWon() int {
	n := 0
	for _, a := range r.Attempts {
		if a.Hedged && a.Won {
			n++
		}
	}
	return n
}

// InsertError reports a batch insert that failed midway. The documents
// already written when the failure hit are not lost: Placed[i] is true
// exactly when docs[i] was durably accepted by every member of its group
// before the error, and IDs[i] is then its global ID (IDs[i] is
// meaningless where Placed[i] is false). Unwrap exposes the underlying
// cause, so errors.Is(err, context.Canceled) and friends keep working.
type InsertError struct {
	IDs    []uint64
	Placed []bool
	Err    error
}

func (e *InsertError) Error() string {
	n := 0
	for _, p := range e.Placed {
		if p {
			n++
		}
	}
	return fmt.Sprintf("cluster: insert failed with %d/%d documents durably placed: %v",
		n, len(e.Placed), e.Err)
}

func (e *InsertError) Unwrap() error { return e.Err }

// Cluster is the coordinator. Insert — with the window advance and the
// group retirements it triggers — holds an internal mutex for the whole
// call, member RPCs included, so inserts serialize (the paper's
// coordinator is likewise a single insertion sequencer). Search, Doc,
// Delete and Stats take no lock: they run concurrently with each other and
// answer while an Insert is in flight, even one parked inside a member.
type Cluster struct {
	mu     sync.Mutex
	nodes  []transport.NodeClient // group-major: group g is nodes[g·r : (g+1)·r]
	r      int                    // replicas per group
	groups int                    // len(nodes) / r
	caps   []int                  // per group: min member capacity
	used   []int                  // per group: rows held (mirrored, so one number)
	m      int                    // insert-window width M, in groups
	start  int                    // first group of the current window

	// router is the data-placement mode: non-nil exactly under
	// PlacementPartitioned, which assign and plan consult, and nil under
	// scatter. Immutable after construction, so the search path reads it
	// without the lock.
	router *Router

	// rr rotates the preferred replica across searches so read load
	// spreads over a group's members.
	rr atomic.Uint32

	// Always-on coordinator telemetry: cheap atomics on the search path,
	// independent of opts.Trace, read through CoordStats. The soak harness
	// correlates client-observed tails with these (failovers during kill
	// windows, hedges fired under merge pressure).
	searches       atomic.Uint64 // batches answered
	queriesServed  atomic.Uint64 // individual queries across those batches
	failovers      atomic.Uint64 // attempts launched because a replica failed
	hedgesLaunched atomic.Uint64 // attempts launched by the hedge timer
	hedgesWon      atomic.Uint64 // hedged attempts whose answer won the group
	groupFailures  atomic.Uint64 // groups that exhausted every replica
}

// Options configures a coordinator. The zero value is the paper's
// layout: scatter placement, one replica per group, a window of
// min(4, groups) (paper: M=4 of 100).
type Options struct {
	// WindowM is the rolling insert window width, in groups; out-of-range
	// values fall back to min(4, groups). Unused under partitioned
	// placement, where documents live where their signature says.
	WindowM int
	// Replicas is R, the mirrored members per group; 0 means 1.
	Replicas int
	// Placement selects the data-placement / query-routing mode; see the
	// Placement constants. PlacementScatter is the default.
	Placement Placement
	// Router computes signature→group placement and per-query probe sets.
	// Required when Placement is PlacementPartitioned (its group count
	// must match the layout), ignored otherwise.
	Router *Router
}

// NewWithOptions builds a coordinator that arranges the endpoints into
// len(nodes)/Replicas groups of Replicas mirrored members each — members
// of one group are adjacent (group-major), and WindowM counts groups.
// len(nodes) must be divisible by Replicas. Group capacities are read
// from member Stats, in parallel, under ctx: a group's capacity is its
// smallest member's, and its occupancy the largest member's, so a drifted
// fleet is never over-filled.
func NewWithOptions(ctx context.Context, nodes []transport.NodeClient, opts Options) (*Cluster, error) {
	if len(nodes) == 0 {
		return nil, errors.New("cluster: no nodes")
	}
	replicas := opts.Replicas
	if replicas <= 0 {
		replicas = 1
	}
	if len(nodes)%replicas != 0 {
		return nil, fmt.Errorf("cluster: %d nodes cannot form groups of %d replicas", len(nodes), replicas)
	}
	groups := len(nodes) / replicas
	windowM := opts.WindowM
	if windowM <= 0 || windowM > groups {
		windowM = min(4, groups)
	}
	c := &Cluster{
		nodes:  nodes,
		r:      replicas,
		groups: groups,
		caps:   make([]int, groups),
		used:   make([]int, groups),
		m:      windowM,
	}
	switch opts.Placement {
	case PlacementScatter: // scatter never routes, whatever the caller passed
	case PlacementPartitioned:
		if opts.Router == nil {
			return nil, errors.New("cluster: partitioned placement needs a Router")
		}
		if opts.Router.Groups() != groups {
			return nil, fmt.Errorf("cluster: router placed for %d groups, cluster has %d",
				opts.Router.Groups(), groups)
		}
		c.router = opts.Router
	default:
		return nil, fmt.Errorf("cluster: unknown placement %d", opts.Placement)
	}
	memberCaps := make([]int, len(nodes))
	memberUsed := make([]int, len(nodes))
	err := c.fanOut(ctx, "stats", func(ctx context.Context, i int) error {
		st, err := c.nodes[i].Stats(ctx)
		if err != nil {
			return err
		}
		memberCaps[i] = st.Capacity
		memberUsed[i] = st.StaticLen + st.DeltaLen
		return nil
	})
	if err != nil {
		return nil, err
	}
	for g := 0; g < groups; g++ {
		c.caps[g] = memberCaps[g*replicas]
		c.used[g] = memberUsed[g*replicas]
		for j := 1; j < replicas; j++ {
			c.caps[g] = min(c.caps[g], memberCaps[g*replicas+j])
			c.used[g] = max(c.used[g], memberUsed[g*replicas+j])
		}
	}
	return c, nil
}

// member returns group g's j-th replica client.
func (c *Cluster) member(g, j int) transport.NodeClient { return c.nodes[g*c.r+j] }

// nodeIndex maps (group, replica) to the global endpoint index.
func (c *Cluster) nodeIndex(g, j int) int { return g*c.r + j }

// fanOut runs f for every endpoint concurrently, canceling the remaining
// calls on the first failure and reporting that failure (attributed to
// its node) rather than the cancellations it induced.
func (c *Cluster) fanOut(ctx context.Context, what string, f func(ctx context.Context, i int) error) error {
	fctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, len(c.nodes))
	var wg sync.WaitGroup
	for i := range c.nodes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if errs[i] = f(fctx, i); errs[i] != nil {
				cancel()
			}
		}(i)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err // the caller's deadline/cancellation, not a node failure
	}
	var canceled error // the first real failure wins over the cancellations it induced
	for i, err := range errs {
		switch {
		case err == nil:
		case !errors.Is(err, context.Canceled):
			return fmt.Errorf("cluster: %s on node %d: %w", what, i, err)
		case canceled == nil:
			canceled = fmt.Errorf("cluster: %s on node %d: %w", what, i, err)
		}
	}
	return canceled
}

// NumNodes returns the endpoint count (groups × replicas).
func (c *Cluster) NumNodes() int { return len(c.nodes) }

// NumGroups returns the replica-group count — the unit of data placement,
// global IDs, and broadcast reports.
func (c *Cluster) NumGroups() int { return c.groups }

// Replicas returns R, the mirrored members per group.
func (c *Cluster) Replicas() int { return c.r }

// Placement returns the cluster's data-placement mode.
func (c *Cluster) Placement() Placement {
	if c.router != nil {
		return PlacementPartitioned
	}
	return PlacementScatter
}

// Insert places the batch through assign, the write side of placement —
// round-robin over the insert window under scatter, advancing it and
// retiring the oldest groups on wrap-around as groups fill (§6); on the
// group each document's signature names under partitioned placement —
// and writes every document to all members of its group (journal-before-
// ack on each durable member), so a later single-member loss costs no
// answers. The returned IDs parallel vs.
//
// Each round assigns the pending documents and writes each group's part
// in ascending group order; a part its group refuses as full is resynced
// and requeued, and a round that places nothing fails the insert. A
// failure midway — a member error, a full routed group, a canceled
// context between rounds — returns an *InsertError whose Placed/IDs
// report exactly which documents were durably accepted by their whole
// group before the error, so the caller knows what the cluster holds
// instead of guessing.
func (c *Cluster) Insert(ctx context.Context, vs []sparse.Vector) ([]uint64, error) {
	if len(vs) == 0 {
		return nil, nil
	}
	// Single insertion sequencer: c.mu serializes inserts, their replica
	// RPCs and the window's retirements by design; the query path never
	// takes it.
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := make([]uint64, len(vs))
	placed := make([]bool, len(vs))
	fail := func(err error) error { return &InsertError{IDs: ids, Placed: placed, Err: err} }
	if c.router != nil {
		// The router hashes every document before any node sees it, so the
		// check the nodes make on arrival is made here first.
		if err := sparse.CheckAll(vs, c.router.Dim()); err != nil {
			return nil, fail(fmt.Errorf("cluster: insert: %w", err))
		}
	}
	// pending holds positions into vs still awaiting placement.
	pending := make([]int, len(vs))
	for i := range pending {
		pending[i] = i
	}
	scratch := make([]sparse.Vector, 0, len(vs))
	for len(pending) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, fail(err)
		}
		parts, rest, err := c.assign(ctx, vs, pending)
		if err != nil {
			return nil, fail(err)
		}
		var requeue []int
		var refused error
		progress := false
		for g, part := range parts {
			if len(part) == 0 {
				continue
			}
			scratch = scratch[:0]
			for _, pos := range part {
				scratch = append(scratch, vs[pos])
			}
			local, err := c.insertGroup(ctx, g, scratch)
			if errors.Is(err, node.ErrFull) {
				// Bookkeeping drift: the group holds more than we thought.
				// Resync it — under c.mu, so the count is quiesced — and
				// let the next round assign this part again.
				c.resyncUsed(ctx, g)
				requeue = append(requeue, part...)
				refused = fmt.Errorf("cluster: group %d refused %d documents: %w", g, len(part), err)
				continue
			}
			if err != nil {
				return nil, fail(fmt.Errorf("cluster: insert on group %d: %w", g, err))
			}
			c.used[g] += len(part)
			progress = true
			for i, l := range local {
				ids[part[i]] = GlobalID(g, l)
				placed[part[i]] = true
			}
		}
		if !progress {
			// Every part was refused, the resynced counts notwithstanding:
			// bookkeeping and reality disagree irrecoverably.
			return nil, fail(fmt.Errorf("cluster: insert made no progress: %w", refused))
		}
		pending = append(requeue, rest...)
	}
	return ids, nil
}

// assign is placement on the write side, consulted once per Insert round:
// it splits the pending positions into per-group parts, indexed by group,
// and the remainder the round leaves pending. Under partitioned placement
// each document goes to the group its signature names (Router.GroupFor) —
// the invariant routed searches depend on, so nothing spills: a routed
// share larger than its group's known room fails the round, before any
// of it is written, with an error wrapping node.ErrFull that names the
// group; a group routed nothing is not checked. There is no window and no retirement, so provision headroom
// above the expected hash balance. Under scatter the window's room is
// split into even shares over its non-full groups, each capped at its
// group's room, and what does not fit stays pending; a full window first
// advances (see advanceWindow). Called with c.mu held.
func (c *Cluster) assign(ctx context.Context, vs []sparse.Vector, pending []int) (parts [][]int, rest []int, err error) {
	parts = make([][]int, c.groups)
	if c.router != nil {
		for _, pos := range pending {
			g := c.router.GroupFor(vs[pos])
			parts[g] = append(parts[g], pos)
		}
		for g, part := range parts {
			if len(part) > 0 && c.used[g]+len(part) > c.caps[g] {
				return nil, nil, fmt.Errorf("cluster: group %d cannot take %d routed documents (%d/%d used): %w",
					g, len(part), c.used[g], c.caps[g], node.ErrFull)
			}
		}
		return parts, nil, nil
	}
	room := func() (free, live int) {
		for i := 0; i < c.m; i++ {
			if w := c.windowGroup(i); c.caps[w] > c.used[w] {
				free += c.caps[w] - c.used[w]
				live++
			}
		}
		return free, live
	}
	free, live := room()
	if free == 0 {
		if err := c.advanceWindow(ctx); err != nil {
			return nil, nil, err
		}
		if free, live = room(); free == 0 {
			return nil, nil, errors.New("cluster: no insertable capacity (all group capacities zero?)")
		}
	}
	fit := min(len(pending), free)
	offset := 0
	for i := 0; i < c.m && offset < fit; i++ {
		w := c.windowGroup(i)
		space := c.caps[w] - c.used[w]
		if space == 0 {
			continue
		}
		share := min((fit-offset+live-1)/live, space)
		live--
		parts[w] = pending[offset : offset+share]
		offset += share
	}
	return parts, pending[offset:], nil
}

// insertGroup mirrors one batch onto every member of group g in parallel
// and returns the agreed node-local IDs. Members are deterministic
// mirrors — each receives identical batches in identical order — so the
// per-member ID slices must agree; a divergence is replica drift and
// fails the insert. ErrFull is returned only when every member reports it
// (mirrors fill in lockstep); any other member failure fails the group
// insert, and the batch may then be held by some members but not others —
// the drift Insert's *InsertError makes visible to the caller.
func (c *Cluster) insertGroup(ctx context.Context, g int, vs []sparse.Vector) ([]uint32, error) {
	perMember := make([][]uint32, c.r)
	errs := make([]error, c.r)
	c.eachMember(func(j int) {
		perMember[j], errs[j] = c.member(g, j).Insert(ctx, vs)
	})
	allFull := true
	for _, err := range errs {
		if !errors.Is(err, node.ErrFull) {
			allFull = false
			break
		}
	}
	if allFull {
		return nil, node.ErrFull
	}
	for j, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, node.ErrFull) {
			// Some members are full but their mirrors are not: replica
			// drift, not a full group. Hide the ErrFull sentinel (%v, not
			// %w) so Insert's resync-and-retry path cannot re-send a batch
			// that the non-full mirrors already accepted and duplicate it.
			return nil, fmt.Errorf("replica drift: node %d reports full, its mirrors do not (%v)",
				c.nodeIndex(g, j), err)
		}
		return nil, fmt.Errorf("replica %d (node %d): %w", j, c.nodeIndex(g, j), err)
	}
	for j := 1; j < c.r; j++ {
		if !slices.Equal(perMember[j], perMember[0]) {
			return nil, fmt.Errorf("replica drift: node %d assigned different ids than node %d",
				c.nodeIndex(g, j), c.nodeIndex(g, 0))
		}
	}
	return perMember[0], nil
}

// eachMember calls f(j) for every member index j of a group at once: the
// last in the caller's goroutine, each other in one of its own. It
// returns when every call has.
func (c *Cluster) eachMember(f func(j int)) {
	var wg sync.WaitGroup
	for j := range c.r - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(j)
		}()
	}
	f(c.r - 1)
	wg.Wait()
}

// windowGroup returns the i-th group of the current insert window.
func (c *Cluster) windowGroup(i int) int { return (c.start + i) % c.groups }

// advanceWindow moves the insert window forward by M groups, retiring
// every member of any group in the new window that still holds (old)
// data. Retirement must reach all members — a member that cannot be
// retired would keep answering with expired documents — so a dead member
// fails the advance (and the Insert that triggered it).
func (c *Cluster) advanceWindow(ctx context.Context) error {
	c.start = (c.start + c.m) % c.groups
	for i := 0; i < c.m; i++ {
		w := c.windowGroup(i)
		if c.used[w] == 0 {
			continue
		}
		for j := 0; j < c.r; j++ {
			if err := c.member(w, j).Retire(ctx); err != nil {
				return fmt.Errorf("cluster: retire node %d: %w", c.nodeIndex(w, j), err)
			}
		}
		c.used[w] = 0
	}
	return nil
}

// resyncUsed refreshes a group's occupancy as the maximum over every
// member that answers — the same rule NewWithOptions applies, and it only
// matters here, on the drift path, where mirrors disagree: counting the
// emptiest member would keep the group looking insertable while its
// fullest member keeps rejecting.
func (c *Cluster) resyncUsed(ctx context.Context, g int) {
	used, answered := 0, false
	for j := 0; j < c.r; j++ {
		if st, err := c.member(g, j).Stats(ctx); err == nil {
			used = max(used, st.StaticLen+st.DeltaLen)
			answered = true
		}
	}
	if answered {
		c.used[g] = used
	}
}

// attemptResult is one replica RPC of a search: which group and member it
// went to, whether the hedge launched it, and how it ended.
type attemptResult struct {
	group, replica int
	hedged         bool
	res            [][]core.Neighbor
	dur            time.Duration
	err            error
}

// attempt makes a's RPC — its group's share to its member, bounded by
// timeout when one is set — and returns a with the outcome.
func (c *Cluster) attempt(ctx context.Context, a attemptResult, qs []sparse.Vector, p node.SearchParams, timeout time.Duration) attemptResult {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	t0 := time.Now()
	a.res, a.err = c.member(a.group, a.replica).Search(ctx, qs, p)
	a.dur = time.Since(t0)
	return a
}

// probeRef locates one routed (query, group) probe's answer: group g's
// sub-batch answers query q at position j.
type probeRef struct {
	q, g, j int32
}

// groupPlan is one group's share of a Search call: the sub-batch it is
// sent (empty = not contacted), the group's failover and hedge state while
// the search loop runs, then the answer and, under trace, the attempts
// behind it. It aliases the caller's queries and holds the group's
// answers, so it lives exactly as long as the request does.
type groupPlan struct {
	sub []sparse.Vector

	pref     int                // preferred replica, rotated across searches
	next     int                // attempts launched; the next goes to replica (pref+next) % R
	inflight int                // launched attempts whose outcome the loop has not read
	done     bool               // answered or failed: a later outcome is a loser's
	t0       time.Time          // when the group's first attempt launched
	ctx      context.Context    // the parent of the group's attempts
	cancel   context.CancelFunc // cancels ctx; nil unless a hedge can race two attempts

	res  [][]core.Neighbor
	atts []Attempt
}

// plan is placement on the read side, the one place a search consults it:
// per group the sub-batch it must answer (empty = not contacted). Under
// scatter every group is sent the caller's batch, so group g's answer i is
// query i's, and there are no refs. A partitioned cluster routes each
// query to Router.Probe's set at the request's radius — the
// recall-bounded set of groups its in-radius neighbors can live on — or
// to every group when the probe set degenerates; it returns the refs that
// find the answers again, in query order, and each sub-batch is a copy of
// the routed query headers, one arena for the whole plan. A routed plan in
// which every query probes every group takes the scatter form.
func (c *Cluster) plan(qs []sparse.Vector, radius float64) (groups []groupPlan, refs []probeRef) {
	groups = make([]groupPlan, c.groups)
	if c.router != nil {
		refs = make([]probeRef, 0, len(qs)*c.groups)
		var buf [64]int // small clusters keep the plan's counters off the heap
		work := buf[:min(2*c.groups, len(buf))]
		if 2*c.groups > len(buf) {
			work = make([]int, 2*c.groups)
		}
		count := work[:c.groups] // per group: routed queries so far
		probes := work[c.groups:c.groups]
		for qi := range qs {
			var ok bool
			probes, ok = c.router.Probe(qs[qi], radius, probes[:0])
			if !ok {
				probes = probes[:0]
				for g := range groups {
					probes = append(probes, g)
				}
			}
			for _, g := range probes {
				refs = append(refs, probeRef{q: int32(qi), g: int32(g), j: int32(count[g])})
				count[g]++
			}
		}
		if len(refs) < len(qs)*c.groups { // the router pruned a probe
			arena := make([]sparse.Vector, len(refs))
			for g, n := range count {
				groups[g].sub, arena = arena[:n:n], arena[n:]
			}
			for _, ref := range refs {
				groups[ref.g].sub[ref.j] = qs[ref.q]
			}
			return groups, refs
		}
	}
	for g := range groups {
		groups[g].sub = qs
	}
	return groups, nil
}

// gather is the coordinator's one loop: it sends every contacted group its
// sub-batch and reads every attempt's outcome in the caller's goroutine,
// driving each group's failover and hedge state in its groupPlan. A
// group's share goes to its preferred replica (rotated across searches for
// load spread), and a failure launches the next replica. With opts.Hedge
// set, the search's one hedge timer races the next replica of every group
// still unanswered when it fires, and the first complete answer wins; the
// loser is canceled. A group fails only when every replica has been tried
// and failed — on the first error when it has one member, which never
// arms the hedge — and under all-or-nothing that failure ends the loop and
// cancels every attempt still running.
//
// An attempt runs in the caller's goroutine when nothing could need the
// loop while it runs: its group is the last unresolved one, with no other
// attempt in flight and no hedge pending. So a one-group, one-replica
// search starts no goroutine, makes no channel and creates no context.
// Every other attempt is a goroutine that sends its outcome to one
// channel, buffered to every attempt the search can make, so a loser's
// late send never blocks and nothing needs draining. A context is made
// only where it cancels something: the search-wide one when more than one
// group is contacted, a group's own when a hedge can race two of its
// attempts, an attempt's own under opts.PerNodeTimeout.
//
// gather records each resolved group's wall time in times and a failed
// group's error in errs. Its error is the caller's ctx error, even when
// every group answered; else the first group failure under
// all-or-nothing, or under opts.Partial the last one when no group
// answered.
func (c *Cluster) gather(ctx context.Context, groups []groupPlan, contacted int, p node.SearchParams, opts BatchOptions, times []time.Duration, errs []error) error {
	sctx := ctx
	if contacted > 1 {
		var cancel context.CancelFunc
		sctx, cancel = context.WithCancel(ctx)
		defer cancel() // cancels every attempt still running when the loop ends
	}
	var (
		results    chan attemptResult // made when an attempt first leaves the caller's goroutine
		hedgeC     <-chan time.Time
		hedgeOpen  = opts.Hedge > 0 // the search's one hedge has not fired
		unresolved = contacted
		failed     int
		ar         attemptResult
		ran        bool // ar holds the outcome of an attempt run inline
	)
	launch := func(g int, hedged bool) {
		gp := &groups[g]
		a := attemptResult{group: g, replica: (gp.pref + gp.next) % c.r, hedged: hedged}
		gp.next++
		hedgeable := hedgeOpen && gp.next < c.r // a hedge may yet race this attempt
		if hedgeable && gp.cancel == nil {
			gp.ctx, gp.cancel = context.WithCancel(gp.ctx)
		}
		actx := gp.ctx
		inline := unresolved == 1 && gp.inflight == 0 && !hedgeable
		gp.inflight++
		if inline {
			ar, ran = c.attempt(actx, a, gp.sub, p, opts.PerNodeTimeout), true
			return
		}
		if hedgeable && hedgeC == nil {
			hedgeC = time.After(opts.Hedge)
		}
		if results == nil {
			results = make(chan attemptResult, contacted*c.r) // every attempt the search can make
		}
		ch, sub := results, gp.sub
		go func() { ch <- c.attempt(actx, a, sub, p, opts.PerNodeTimeout) }()
	}
	for g := range groups {
		if gp := &groups[g]; len(gp.sub) > 0 {
			gp.pref, gp.ctx, gp.t0 = int((c.rr.Add(1)-1)%uint32(c.r)), sctx, time.Now()
			launch(g, false)
		}
	}
	for unresolved > 0 {
		if !ran {
			select {
			case ar = <-results:
			case <-hedgeC:
				hedgeC, hedgeOpen = nil, false // one hedge per group
				for g := range groups {
					if gp := &groups[g]; len(gp.sub) > 0 && !gp.done && gp.next < c.r {
						c.hedgesLaunched.Add(1)
						launch(g, true)
					}
				}
				continue
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		ran = false
		g, gp := ar.group, &groups[ar.group]
		gp.inflight--
		if gp.done {
			continue // a loser, read while another group is still open
		}
		if opts.Trace {
			gp.atts = append(gp.atts, Attempt{
				Group: g, Replica: ar.replica, Node: c.nodeIndex(g, ar.replica),
				Hedged: ar.hedged, Won: ar.err == nil, Time: ar.dur, Err: ar.err,
			})
		}
		switch {
		case ar.err == nil:
			if ar.hedged {
				c.hedgesWon.Add(1)
			}
			gp.res = ar.res
		case ctx.Err() != nil:
			return ctx.Err() // the caller gave up; failing over is pointless
		case gp.next < c.r:
			c.failovers.Add(1)
			launch(g, false) // failover to the next replica
			continue
		case gp.inflight > 0:
			continue // a raced attempt may still answer
		default: // every replica tried and failed
			c.groupFailures.Add(1)
			errs[g] = ar.err
			failed++
		}
		gp.done, times[g] = true, time.Since(gp.t0)
		unresolved--
		if gp.cancel != nil {
			gp.cancel() // reap the losing attempt
		}
		if ar.err != nil && (!opts.Partial || failed == contacted) {
			return fmt.Errorf("cluster: search on group %d: %w", g, ar.err)
		}
	}
	return ctx.Err() // the caller may have given up as the last answer came in
}

// Search answers a batch under request-scoped parameters and opts'
// failure policy, and reports each group's wall time and outcome. It is
// the one query path of the coordinator, whatever the placement: plan
// the per-group sub-batches (see plan — a scatter broadcast sends every
// group the caller's batch), send each contacted group's sub-batch to one
// member's Search entry point (per-query radius applied node-side,
// answers pruned to p.K per group when bounded) — with failover to
// sibling replicas on error/timeout and an optional hedge against slow
// ones, all in one loop (see gather) — and merge each query's per-group
// lists (list i of every group under scatter, else through the probe
// refs) into its span of one arena, sorted into the canonical order and
// cut at p.K when it is set. Groups the plan gave nothing — pruned by the
// router, or any group when the batch is empty — are skipped entirely:
// zero wall time, nil error, nothing on the wire. A query with no answer
// gets a nil list. Answers come back in canonical ascending (distance,
// global ID) order and are replica-agnostic (mirrors answer identically,
// so which member won is visible only in the report). Under opts.Trace
// the report also carries the attempt trace and, on a partitioned
// cluster, the routed and pruned (query, group) totals.
//
// Cancellation of ctx aborts the whole search early with ctx.Err().
// Under the default all-or-nothing policy the first contacted group to
// fail (every replica exhausted) cancels the remaining in-flight work and
// is the only group the report blames; with opts.Partial the search runs
// to completion (each attempt bounded by opts.PerNodeTimeout, if set),
// answers from responding groups are merged, and stragglers show up only
// in the report — the production trade of a complete answer for bounded
// latency. On a partitioned cluster a query that does not fit the
// router's dimension is refused with an error wrapping sparse.ErrInvalid
// before anything is routed; on scatter the nodes refuse it.
func (c *Cluster) Search(ctx context.Context, qs []sparse.Vector, p node.SearchParams, opts BatchOptions) ([][]Neighbor, BatchReport, error) {
	report := BatchReport{
		Times: make([]time.Duration, c.groups),
		Errs:  make([]error, c.groups),
	}
	if c.router != nil {
		if err := sparse.CheckAll(qs, c.router.Dim()); err != nil {
			return nil, report, fmt.Errorf("cluster: search: %w", err)
		}
	}
	groups, refs := c.plan(qs, p.Radius)
	contacted, routed := 0, 0
	for _, gp := range groups {
		if n := len(gp.sub); n > 0 { // pruned: zero time, nil error, nothing on the wire
			contacted++
			routed += n
		}
	}
	if opts.Trace && c.router != nil {
		// The (query, group) pairs the router kept and pruned; scatter
		// routes nothing and reports both as zero.
		report.RoutedGroups, report.PrunedGroups = routed, len(qs)*c.groups-routed
	}
	err := c.gather(ctx, groups, contacted, p, opts, report.Times, report.Errs)
	for _, gp := range groups {
		report.Attempts = append(report.Attempts, gp.atts...)
	}
	if err != nil {
		return nil, report, err
	}
	// Every query's answer is a span of one arena sized by the group lists'
	// total.
	size := 0
	for _, gp := range groups {
		for _, list := range gp.res {
			size += len(list)
		}
	}
	out := make([][]Neighbor, len(qs))
	arena := make([]Neighbor, 0, size)
	take := func(g, j int) { // group g's list j, under global IDs
		if lists := groups[g].res; lists != nil { // nil: the group failed
			for _, nb := range lists[j] {
				arena = append(arena, Neighbor{ID: GlobalID(g, nb.ID), Dist: nb.Dist})
			}
		}
	}
	for qi := range qs {
		base := len(arena)
		if refs == nil {
			for g := range groups {
				take(g, qi)
			}
		}
		for ; len(refs) > 0 && int(refs[0].q) == qi; refs = refs[1:] {
			take(int(refs[0].g), int(refs[0].j))
		}
		ans := arena[base:]
		if len(ans) == 0 {
			continue // no answer is a nil list
		}
		slices.SortFunc(ans, compareNeighbors)
		if p.K > 0 && len(ans) > p.K {
			ans = ans[:p.K]
		}
		out[qi] = ans[:len(ans):len(ans)]
	}
	c.searches.Add(1)
	c.queriesServed.Add(uint64(len(qs)))
	return out, report, nil
}

// ReleaseResults does nothing: a Search answer is an ordinary value its
// caller owns, and nothing is handed back. The method exists only because
// benchmarks/suite/ladder.go calls it at three sites and a PR outside the
// benchmark's own may not edit that directory; the next benchmark PR
// deletes those calls and this method together (ROADMAP item 1A(d)).
func (c *Cluster) ReleaseResults([][]Neighbor) {}

// Doc fetches the stored vector for a global ID from the group that holds
// it — any live member, failing over to the next on a transport error —
// with the member's authoritative answer to whether the local id was ever
// inserted. A global ID naming a nonexistent group is simply unknown —
// (zero, false, nil), matching an unknown local id — while failure of
// every member is an error.
func (c *Cluster) Doc(ctx context.Context, gid uint64) (sparse.Vector, bool, error) {
	group, local := SplitGlobalID(gid)
	if group < 0 || group >= c.groups {
		return sparse.Vector{}, false, nil
	}
	var lastErr error
	for j := 0; j < c.r; j++ {
		v, known, err := c.member(group, j).Doc(ctx, local)
		if err == nil {
			return v, known, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			break // the caller gave up; trying siblings is pointless
		}
	}
	return sparse.Vector{}, false, fmt.Errorf("cluster: doc on group %d: %w", group, lastErr)
}

// Delete removes a document by global ID from every member of its group
// (a tombstone that reached only some mirrors would resurrect the
// document on a failover to the others). A global ID that names a
// nonexistent group, or a local ID no member ever inserted, returns an
// error wrapping node.ErrNotFound, so callers can tell a bad ID from a
// transport failure. A member failure fails the call — the tombstone may
// then be applied on some members only; retry until nil to restore
// mirror agreement.
func (c *Cluster) Delete(ctx context.Context, gid uint64) error {
	group, local := SplitGlobalID(gid)
	if group < 0 || group >= c.groups {
		return fmt.Errorf("cluster: no group %d: %w", group, node.ErrNotFound)
	}
	errs := make([]error, c.r)
	c.eachMember(func(j int) {
		errs[j] = c.member(group, j).Delete(ctx, local)
	})
	notFound := 0
	for j, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, node.ErrNotFound) {
			notFound++
			continue
		}
		return fmt.Errorf("cluster: delete on node %d: %w", c.nodeIndex(group, j), err)
	}
	if notFound == c.r {
		return fmt.Errorf("cluster: %w", node.ErrNotFound)
	}
	return nil
}

// MergeAll drives every node to a fully static state in parallel. Under
// the nodes' snapshot concurrency model each per-node merge runs as a
// background rebuild — MergeNow only waits for quiescence — so broadcasts
// issued while MergeAll is in flight keep being answered from the nodes'
// pre-merge snapshots instead of buffering behind the rebuilds.
func (c *Cluster) MergeAll(ctx context.Context) error {
	return c.fanOut(ctx, "merge", func(ctx context.Context, i int) error {
		return c.nodes[i].MergeNow(ctx)
	})
}

// FlushAll waits, in parallel, for every node's in-flight background merge
// (if any) to finish without forcing new ones — the barrier callers use to
// read settled Stats after streaming inserts.
func (c *Cluster) FlushAll(ctx context.Context) error {
	return c.fanOut(ctx, "flush", func(ctx context.Context, i int) error {
		return c.nodes[i].Flush(ctx)
	})
}

// SaveAll checkpoints every node's data directory in parallel — the
// cluster-wide durability barrier: when it returns nil, every node's
// state is a snapshot plus an empty journal, and a restart of any (or
// every) node recovers exactly the acknowledged cluster contents.
func (c *Cluster) SaveAll(ctx context.Context) error {
	return c.fanOut(ctx, "save", func(ctx context.Context, i int) error {
		return c.nodes[i].Save(ctx)
	})
}

// Stats gathers per-endpoint snapshots in parallel (one entry per node,
// group-major: members of group g are entries [g·R, (g+1)·R)).
func (c *Cluster) Stats(ctx context.Context) ([]node.Stats, error) {
	out := make([]node.Stats, len(c.nodes))
	err := c.fanOut(ctx, "stats", func(ctx context.Context, i int) error {
		st, err := c.nodes[i].Stats(ctx)
		if err != nil {
			return err
		}
		out[i] = st
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// CoordStats is the coordinator's own always-on telemetry: counters the
// search path maintains with cheap atomics regardless of opts.Trace.
// Unlike BatchReport.HedgesWon (per-call, trace-gated), these accumulate
// over the coordinator's lifetime, so a soak run can assert that injected
// faults actually exercised failover and hedging.
type CoordStats struct {
	// Searches counts answered batches; Queries the individual queries
	// across them.
	Searches uint64
	Queries  uint64
	// Failovers counts replica attempts launched because a sibling failed;
	// HedgesLaunched those launched by the hedge timer; HedgesWon the
	// hedged attempts whose answer won their group.
	Failovers      uint64
	HedgesLaunched uint64
	HedgesWon      uint64
	// GroupFailures counts groups that exhausted every replica (or, single
	// -copy, whose only member failed).
	GroupFailures uint64
}

// CoordStats returns the coordinator's accumulated telemetry.
func (c *Cluster) CoordStats() CoordStats {
	return CoordStats{
		Searches:       c.searches.Load(),
		Queries:        c.queriesServed.Load(),
		Failovers:      c.failovers.Load(),
		HedgesLaunched: c.hedgesLaunched.Load(),
		HedgesWon:      c.hedgesWon.Load(),
		GroupFailures:  c.groupFailures.Load(),
	}
}

// Close closes every node client.
func (c *Cluster) Close() error {
	var first error
	for _, n := range c.nodes {
		if err := n.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
