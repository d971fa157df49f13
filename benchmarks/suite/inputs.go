package main

import (
	"plsh/internal/corpus"
	"plsh/internal/rng"
	"plsh/internal/sparse"
)

// Shared geometry: the library defaults (K=16, M=16 → 120 tables, radius
// 0.9) over the 50 000-word tweet-like vocabulary. The hash seed stays at
// the system's default; only the generated inputs depend on -seed.
const (
	// corpusSeed fixes the documents themselves. Which words are frequent,
	// and so how full the hash buckets they land in are, is decided by the
	// corpus generator's seed; recall moved by 4 % and latency by 3 %
	// between corpora, more than the bounds later changes are held to. So
	// every run indexes the same documents, and -seed draws everything that
	// is done with them: the query sample and its order, the deletes, the
	// recently-written rows the stream's searchers ask for.
	corpusSeed = 1
	vocabSize  = 50000
	lshK       = 16
	lshM       = 16
	radius     = 0.9
	topK       = 10 // WithK bound of the fleet workloads
)

// sizes are the constants of one benchmark scale. full is what
// BENCHMARK.json describes; the tests run the same code at tiny.
type sizes struct {
	n0            int // base set, preloaded and merged before any window
	preloadBatch  int // documents per Insert call during set-up
	setups        int // set-ups per run; setup_s is their median
	recoverDocs   int // journaled past the checkpoint for stream_ingest's recover_s
	recoverOpens  int // timed re-opens; recover_s is their median
	mergeTrigger  int // stream_ingest: delta rows that start a background merge
	minMerges     int // stream_ingest: fewer merges in the window fails the run
	streamBatch   int // stream_ingest writer: documents per Insert
	paceBatch     int // fleet_mixed open-loop writer: documents per Insert ...
	paceEveryMS   int // ... every this many milliseconds
	searchBatch   int // fleet_routed_batch: queries per SearchBatch
	minCalls      int // fewer search calls in the window fails the run (1000: a p99 with ten samples beyond it)
	recallQueries int // quiescent recall audit sample
	queryPool     int // distinct sampled queries the clients cycle through
	ladderQueries int // traced ladder: queries per rung
	ladderBatches int // traced ladder: insert batches per rung
	ladderBulk    int // traced ladder: documents per untimed preload Insert
}

var full = sizes{
	n0:            32000,
	preloadBatch:  1000,
	setups:        3,
	recoverDocs:   10000,
	recoverOpens:  3,
	mergeTrigger:  13107, // DeltaFraction 0.05 × Capacity 1<<18
	minMerges:     3,
	streamBatch:   100,
	paceBatch:     20,
	paceEveryMS:   20,
	searchBatch:   16,
	minCalls:      1000,
	recallQueries: 500,
	queryPool:     10000,
	ladderQueries: 2000,
	ladderBatches: 200,
	ladderBulk:    5000,
}

// A node reserves its document arena by capacity, so the two in-process
// stores, whose heap mem_bytes_per_doc reads, get a capacity near what a
// run can hold, or the reserve would be what the metric reads: about twice
// the base set for static_query, the base set plus the most a window can
// stream for stream_ingest. The fleet nodes run at plsh-node's defaults
// (1<<20, merge at a tenth of it: none during a run but the set-up's own).
const (
	staticCapacity = 1 << 16
	// staticDeltaFraction keeps the automatic merge trigger (half the
	// capacity) above the base set, so the set-up's only merge is the one
	// it asks for — as with the library defaults at the issue's scale.
	staticDeltaFraction = 0.5
	streamCapacity      = 1 << 18
)

// inputs is everything a run feeds the system, generated before any
// timing: the corpus (base set first, then the fresh documents the writers
// stream), and the query pool sampled from the base set by -seed — the
// paper queries with "a random subset of tweets from the database".
type inputs struct {
	seed    uint64
	sz      sizes
	docs    []sparse.Vector // docs[:n0] is the base set; docs[n0:] is the stream
	queries []int32         // rows of the base set, sampled with replacement
}

// makeInputs generates the base set plus fresh stream documents. The
// generator is sequential, so the base set is the same whatever fresh is:
// every workload and the ladder see one corpus.
func makeInputs(seed uint64, sz sizes, fresh int) *inputs {
	col := corpus.Generate(corpus.Twitter(sz.n0+fresh, vocabSize, corpusSeed))
	in := &inputs{seed: seed, sz: sz, docs: make([]sparse.Vector, col.Mat.Rows())}
	for i := range in.docs {
		in.docs[i] = col.Mat.Row(i)
	}
	src := rng.New(seed ^ 0x9e3779b97f4a7c15)
	in.queries = make([]int32, sz.queryPool)
	for i := range in.queries {
		in.queries[i] = int32(src.Intn(sz.n0))
	}
	return in
}

func (in *inputs) base() []sparse.Vector { return in.docs[:in.sz.n0] }
