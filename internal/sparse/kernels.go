package sparse

// QueryMask is the §5.2.3 query-side structure: a dense value array over the
// vocabulary plus an occupancy mask, giving O(1) lookups per candidate
// non-zero during Step Q3. The paper stores the mask as a bitvector over the
// 500K-word vocabulary (fits in L2); we pair it with a dense float array so
// the matched IDF score is one indexed load away.
//
// A QueryMask is scatter/unscatter-recycled across the queries a worker
// processes, so the dense arrays are allocated once per worker.
type QueryMask struct {
	vals []float32
	mask []uint64
	// scattered remembers the active query's indexes for O(NNZ) unscatter.
	scattered []uint32
}

// NewQueryMask returns a mask for dimensionality dim.
func NewQueryMask(dim int) *QueryMask {
	return &QueryMask{
		vals: make([]float32, dim),
		mask: make([]uint64, (dim+63)/64),
	}
}

// Scatter loads query q into the mask. Any previously scattered query is
// removed first.
func (qm *QueryMask) Scatter(q Vector) {
	qm.Unscatter()
	for i, c := range q.Idx {
		qm.vals[c] = q.Val[i]
		qm.mask[c>>6] |= 1 << (uint64(c) & 63)
	}
	qm.scattered = append(qm.scattered[:0], q.Idx...)
}

// Unscatter removes the active query from the mask in O(NNZ).
func (qm *QueryMask) Unscatter() {
	for _, c := range qm.scattered {
		qm.vals[c] = 0
		qm.mask[c>>6] &^= 1 << (uint64(c) & 63)
	}
	qm.scattered = qm.scattered[:0]
}

// Dot computes the dot product between the scattered query and a candidate
// document given as parallel index/value slices. Each candidate non-zero
// costs one mask probe; only ~8% of probes hit for Twitter data (§5.2.3),
// so the common path is a single bit test.
func (qm *QueryMask) Dot(idx []uint32, val []float32) float64 {
	var s float64
	for i, c := range idx {
		if qm.mask[c>>6]&(1<<(uint64(c)&63)) != 0 {
			s += float64(val[i]) * float64(qm.vals[c])
		}
	}
	return s
}
