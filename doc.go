// Package plsh is a streaming similarity-search library: a Go
// implementation of Parallel Locality-Sensitive Hashing (PLSH) from
// "Streaming Similarity Search over one Billion Tweets using Parallel
// Locality-Sensitive Hashing" (Sundaram et al., VLDB 2013).
//
// PLSH answers R-near-neighbor queries over sparse high-dimensional unit
// vectors (e.g. IDF-weighted bag-of-words documents) under angular
// distance.
//
// # One Index, one Search
//
// The public API is one logical surface, the Index interface, implemented
// identically by a single-node *Store and a multi-node *Cluster
// (in-process via NewCluster/OpenCluster, or over TCP via DialCluster):
//
//	Insert(ctx, docs)           → []uint64 global IDs
//	Search(ctx, q, opts...)     → Result{Matches}
//	SearchBatch(ctx, qs, opts...) → []Result, Report
//	Delete / Doc / Merge / Flush / Save / Stats / Close
//
// Documents are identified by uint64 global IDs everywhere: a Cluster
// packs (group, local ID) via GlobalID — the replica group is the node
// when Config.Replicas is 1 — and a Store is simply node 0, so code
// written against Index scales from one process to a fleet without
// changing a call site. A Store's SearchBatch is the coordinator's own
// search over the Store as its one group, so the options, the failure
// policy and the Report are one machinery on both, and a Match is the
// coordinator's answer type, handed out as it comes.
//
// Query behavior is request-scoped, not frozen at construction: Search
// takes functional options so one index serves heterogeneous traffic —
//
//	res, _ := idx.Search(ctx, q)                       // R-near at the configured radius
//	res, _ = idx.Search(ctx, q, plsh.WithK(10))        // the 10 nearest of them
//	res, _ = idx.Search(ctx, q, plsh.WithRadius(1.1))  // a per-request radius
//	res, _, _ = idx.SearchBatch(ctx, qs,               // bounded latency, partial ok
//		plsh.WithNodeTimeout(50*time.Millisecond), plsh.AllowPartial())
//	res, _ = idx.Search(ctx, q,                        // race a slow replica
//		plsh.WithHedge(20*time.Millisecond))
//
// Every search checks the distance of every unique candidate its LSH
// buckets yield (§5.2, Steps Q2–Q4), so its answer set is fixed by the
// sketches, the radius and k. Search and SearchBatch are the only query
// methods: a single query is a batch of one, a top-k query is WithK.
//
// # The engine underneath
//
// The implementation combines:
//
//   - an all-pairs LSH scheme: m half-width hash functions composed into
//     L = m(m−1)/2 tables, cutting hashing cost to O(NNZ·k·√L);
//   - cache-conscious static tables built by two-level parallel
//     partitioning with shared first-level partitions; their buckets, like
//     the delta table's, are exact — every row that hashes to a bucket is
//     in it, with no sampling or cap;
//   - a batched query engine with bitvector duplicate elimination, sorted
//     candidate extraction, and masked sparse dot products;
//   - streaming inserts through an insert-optimized delta table that is
//     periodically merged into the static structure by a background merge
//     pipeline: queries run lock-free against immutable copy-on-write
//     snapshots and are never buffered behind a merge (Merge waits for a
//     quiesced merge; Flush awaits an in-flight one; Stats surfaces
//     MergeInFlight), with atomic-tombstone deletions that merges leave
//     out of the buckets they write, and well-defined expiration;
//   - an analytical performance model that selects the (k, m) parameters
//     for a target recall and memory budget (see Tune);
//   - a multi-node coordinator (in-process or TCP) with a rolling insert
//     window for cluster-scale corpora and a request-ID-multiplexed,
//     versioned wire protocol that carries the request-scoped search
//     parameters to every node;
//   - R-way replication (Config.Replicas) beyond the paper's single-copy
//     fleet: endpoints form mirrored replica groups — inserts write to
//     every member (journal-before-ack), searches pick one member and
//     fail over to its siblings on error, WithHedge races a slow replica
//     — so any single member can be SIGKILLed without losing answers,
//     and a restarted member rejoins from its journal (the Report traces
//     every attempt: failovers, hedges won, who answered);
//   - data-aware placement (Config.Placement = PlacementPartitioned):
//     instead of broadcasting every search to every replica group,
//     documents are placed by a short LSH routing signature and each
//     query probes only the groups that can hold its in-radius
//     neighbors, to a configurable recall target (RoutingRecall) —
//     falling back to the exact broadcast per query when routing cannot
//     help (WithTrace reports RoutedGroups/PrunedGroups per batch; the
//     default PlacementScatter stays bit-identical to the paper's
//     layout);
//   - optional durability: a Store opened with a data directory (Open)
//     journals every acknowledged write ahead of acknowledging it and
//     checkpoints snapshots on merge, so restarts — graceful or kill -9 —
//     recover every acknowledged document (Save checkpoints on demand;
//     see DESIGN.md for the on-disk format);
//   - runtime observability for long-running deployments: Stats carries
//     each node's served-operation counters (SearchesServed — every
//     query answered, single or batched — InsertsServed, DeletesServed)
//     and its WAL write/fsync latency quantiles, and Cluster.CoordStats
//     counts the coordinator's failovers, hedges launched/won, and group
//     failures — the numbers the SLO-gated soak harness (cmd/plsh-soak,
//     scripts/soak.sh) checks against injected faults.
//
// Every operation takes a context.Context end to end — public API,
// coordinator, transport, node — so deadlines and cancellation abort a
// broadcast early instead of waiting on the slowest node.
//
// # Quick start
//
//	store, err := plsh.NewStore(plsh.Config{Dim: 1 << 18})
//	if err != nil { ... }
//	ctx := context.Background()
//	ids, err := store.Insert(ctx, docs)              // docs are unit plsh.Vectors
//	res, err := store.Search(ctx, q)                 // R-near neighbors of q
//	best, err := store.Search(ctx, q, plsh.WithK(10)) // 10 nearest of them
//
// See the examples directory for streaming, first-story detection, and
// multi-node usage, and DESIGN.md for the paper-to-package map.
package plsh
