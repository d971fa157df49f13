package cluster

import (
	"testing"

	"plsh/internal/core"
)

// TestMergeStateReleaseDropsReferences pins the fix plsh-vet's poolzero
// check first caught: mergeState went back to mergePool with its input
// lists, cursor arena, and heap still pointing into per-group answer
// buffers, pinning released node answers across unrelated requests.
// release must drop every such reference — over the slices' full
// capacity, because per-query truncate-and-refill and heap.Pop both
// leave live pointers beyond the final lengths.
func TestMergeStateReleaseDropsReferences(t *testing.T) {
	ms := &mergeState{}
	ms.lists = append(ms.lists,
		[]core.Neighbor{{ID: 1, Dist: 0.1}, {ID: 3, Dist: 0.3}},
		[]core.Neighbor{{ID: 2, Dist: 0.2}},
	)
	ms.groups = append(ms.groups, 0, 1)
	out := ms.mergeAppend(nil, 3)
	if len(out) != 3 {
		t.Fatalf("merge returned %d neighbors, want 3", len(out))
	}
	nl, nc, nh := cap(ms.lists), cap(ms.cursors), cap(ms.h)
	if nc == 0 || nh == 0 {
		t.Fatal("merge built no cursors or heap; the test lost its subject")
	}
	ms.release()
	if len(ms.lists) != 0 || len(ms.groups) != 0 || len(ms.cursors) != 0 || len(ms.h) != 0 {
		t.Errorf("release left lengths (%d,%d,%d,%d), want all 0",
			len(ms.lists), len(ms.groups), len(ms.cursors), len(ms.h))
	}
	for i, l := range ms.lists[:nl] {
		if l != nil {
			t.Errorf("lists[%d] still references an answer buffer after release", i)
		}
	}
	for i, c := range ms.cursors[:nc] {
		if c.list != nil {
			t.Errorf("cursors[%d].list still references an answer buffer after release", i)
		}
	}
	for i, p := range ms.h[:nh] {
		if p != nil {
			t.Errorf("h[%d] still points into the cursor arena after release", i)
		}
	}
}
