package core

// topk.go implements bounded top-k selection over neighbor lists — the
// primitive behind a K-bounded Search. A node answers a top-k query with
// its k best R-near candidates; the coordinator merges the per-node
// partial lists without materializing the full concatenated R-near answer
// set.

// neighborLess is the canonical result order: ascending distance, ties by
// ascending ID (matching SortNeighbors).
func neighborLess(a, b Neighbor) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	return a.ID < b.ID
}

// TopK selects the k nearest entries of ns in O(n log k), returning them
// sorted ascending by (Dist, ID). It reorders ns in place and returns a
// prefix of it; k ≤ 0 yields nil, k ≥ len(ns) sorts and returns all of ns.
func TopK(ns []Neighbor, k int) []Neighbor {
	if k <= 0 {
		return nil
	}
	if k >= len(ns) {
		SortNeighbors(ns)
		return ns
	}
	// Bounded max-heap over ns[:k]: the root is the worst of the current
	// best k, so each remaining entry needs one comparison to reject.
	h := ns[:k]
	for i := k/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	for _, nb := range ns[k:] {
		if neighborLess(nb, h[0]) {
			h[0] = nb
			siftDown(h, 0)
		}
	}
	SortNeighbors(h)
	return h
}

// siftDown restores the max-heap property (worst neighbor at the root)
// for the subtree rooted at i.
func siftDown(h []Neighbor, i int) {
	for {
		l, r, worst := 2*i+1, 2*i+2, i
		if l < len(h) && neighborLess(h[worst], h[l]) {
			worst = l
		}
		if r < len(h) && neighborLess(h[worst], h[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}
