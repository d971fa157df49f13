package baseline

import (
	"sync"

	"plsh/internal/core"
	"plsh/internal/lshhash"
	"plsh/internal/sched"
	"plsh/internal/sparse"
)

// Chained is the "basic implementation" of LSH the paper measures its
// speedups against: each of the L tables is a hash map of dynamically
// grown buckets (the pointer-chasing layout of Fig. 3b), every table's
// k-bit key is computed independently during construction, duplicate
// elimination uses a set container, and dot products use merge
// intersection. Everything PLSH's §5 optimizations replace, in one type.
type Chained struct {
	fam    *lshhash.Family
	store  sparse.Store
	radius float64
	pool   *sched.Pool
	tables []map[uint32][]uint32
	wsPool sync.Pool
}

// chainedWorkspace is one query's private chained-hash probe state: owned
// candidate buffers; answers are copied out before reuse.
type chainedWorkspace struct {
	set    map[uint32]struct{}
	scores []float32
	sketch []uint32
}

// NewChained builds the naive structure over every document in store.
// Construction is parallelized over tables (one goroutine per table subset)
// but performs the per-table k-bit hashing and per-item map appends a basic
// implementation would.
func NewChained(fam *lshhash.Family, store sparse.Store, radius float64, workers int) *Chained {
	p := fam.Params()
	c := &Chained{
		fam:    fam,
		store:  store,
		radius: radius,
		pool:   sched.NewPool(workers),
		tables: make([]map[uint32][]uint32, p.L()),
	}
	n := store.Rows()
	half := uint(p.K / 2)
	// A basic implementation computes sketches once (even naive codes hash
	// each point once per function) but inserts with per-bucket appends.
	sketches := make([]uint32, n*p.M)
	c.pool.Static(n, func(lo, hi, _ int) {
		scores := make([]float32, p.NumFuncs())
		for i := lo; i < hi; i++ {
			idx, val := store.Doc(i)
			c.fam.SketchScalarInto(sparse.Vector{Idx: idx, Val: val}, scores, sketches[i*p.M:(i+1)*p.M])
		}
	})
	c.pool.Run(p.L(), func(l, _ int) {
		a, b := lshhash.PairForTable(l, p.M)
		m := make(map[uint32][]uint32)
		for i := 0; i < n; i++ {
			key := sketches[i*p.M+a]<<half | sketches[i*p.M+b]
			m[key] = append(m[key], uint32(i))
		}
		c.tables[l] = m
	})
	c.wsPool.New = func() any {
		return &chainedWorkspace{
			set:    make(map[uint32]struct{}, 1024),
			scores: make([]float32, p.NumFuncs()),
			sketch: make([]uint32, p.M),
		}
	}
	return c
}

// Query answers with set-based dedup and merge-intersection dot products.
func (c *Chained) Query(q sparse.Vector) Result {
	if q.NNZ() == 0 {
		return Result{}
	}
	p := c.fam.Params()
	half := uint(p.K / 2)
	ws := c.wsPool.Get().(*chainedWorkspace)
	defer c.wsPool.Put(ws)
	c.fam.SketchInto(q, ws.scores, ws.sketch)
	for l := range c.tables {
		a, b := lshhash.PairForTable(l, p.M)
		key := ws.sketch[a]<<half | ws.sketch[b]
		for _, id := range c.tables[l][key] {
			ws.set[id] = struct{}{}
		}
	}
	thr := sparse.CosThreshold(c.radius)
	var out []core.Neighbor
	comps := 0
	for id := range ws.set {
		delete(ws.set, id)
		comps++
		idx, val := c.store.Doc(int(id))
		dot := sparse.Dot(q, sparse.Vector{Idx: idx, Val: val})
		if dot >= thr {
			out = append(out, core.Neighbor{ID: id, Dist: sparse.AngularDistance(dot)})
		}
	}
	return Result{Neighbors: out, DistComps: comps}
}

// QueryBatch answers the batch in parallel over queries.
func (c *Chained) QueryBatch(qs []sparse.Vector) []Result {
	out := make([]Result, len(qs))
	c.pool.Run(len(qs), func(task, _ int) { out[task] = c.Query(qs[task]) })
	return out
}
