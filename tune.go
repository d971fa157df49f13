package plsh

import (
	"fmt"

	"plsh/internal/perfmodel"
	"plsh/internal/sparse"
)

// TuneOptions constrains the §7.3 parameter search.
type TuneOptions struct {
	// Radius is the target R (default 0.9).
	Radius float64
	// Delta is the acceptable miss probability per true neighbor
	// (default 0.1 → ≥90% recall at the radius boundary).
	Delta float64
	// MemoryBudget caps the hash-table footprint in bytes, Eq. 7.4 as the
	// tables lay it out (core.TableMemoryBound): an item at the bits its id
	// and its key's unindexed bits take, plus the bucket directory (default
	// 1 GiB).
	MemoryBudget int64
	// TargetN is the dataset size to optimize for; defaults to the sample
	// size (use the expected production size for capacity planning).
	TargetN int
	// MaxK and MaxM bound the enumeration (defaults 24 and 64).
	MaxK, MaxM int
	// Seed controls sampling (default 1).
	Seed uint64
}

// Tuning is a selected parameter point with its predicted per-query cost.
type Tuning struct {
	K, M, L          int
	PredictedQueryNS float64
	MemoryBytes      int64
}

// Tune runs the paper's model-driven parameter selection on a sample of
// the corpus: it calibrates the machine's per-operation costs, estimates
// E[#collisions] and E[#unique] for each feasible (k, m) by sampling
// pairwise distances, and returns the cheapest choice meeting the recall
// constraint P′(R, k, m) ≥ 1−Delta within the memory budget.
//
// Apply the result by setting Config.K and Config.M.
func Tune(sample []Vector, opts TuneOptions) (Tuning, error) {
	if len(sample) < 2 {
		return Tuning{}, fmt.Errorf("plsh: Tune needs at least 2 sample documents, got %d", len(sample))
	}
	if opts.Radius == 0 {
		opts.Radius = 0.9
	}
	if opts.Delta == 0 {
		opts.Delta = 0.1
	}
	if opts.MemoryBudget == 0 {
		opts.MemoryBudget = 1 << 30
	}
	if opts.MaxK == 0 {
		opts.MaxK = 24
	}
	if opts.MaxM == 0 {
		opts.MaxM = 64
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	dim := 0
	for _, v := range sample {
		if n := v.NNZ(); n > 0 {
			if d := int(v.Idx[n-1]) + 1; d > dim {
				dim = d
			}
		}
	}
	if dim == 0 {
		return Tuning{}, fmt.Errorf("plsh: Tune sample contains only empty vectors")
	}
	mat := sparse.NewMatrix(dim, len(sample), len(sample)*8)
	for _, v := range sample {
		mat.AppendRow(v)
	}
	nq := min(len(sample), 1000)
	np := min(len(sample), 1000)
	w := perfmodel.SampleWorkload(mat, nq, np, opts.Seed)
	if opts.TargetN > 0 {
		w.N = opts.TargetN
	}
	costs := perfmodel.Calibrate(dim, w.MeanNNZ, opts.Seed)
	choice, err := perfmodel.Select(costs, w, opts.Radius, opts.Delta, opts.MaxK, opts.MaxM, opts.MemoryBudget)
	if err != nil {
		return Tuning{}, fmt.Errorf("plsh: %w", err)
	}
	return Tuning{
		K: choice.K, M: choice.M, L: choice.L,
		PredictedQueryNS: choice.Est.TotalNS,
		MemoryBytes:      choice.MemoryBytes,
	}, nil
}
