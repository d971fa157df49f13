package cluster

import (
	"fmt"
	"strings"
	"testing"

	"plsh/internal/transport"
)

// runs renders global IDs in document order as "group:first-last" runs of
// consecutive local IDs on one group, so a placement reads at a glance.
func runs(ids []uint64) string {
	var b strings.Builder
	for i := 0; i < len(ids); {
		j := i + 1
		for j < len(ids) && ids[j] == ids[j-1]+1 {
			j++
		}
		g, first := SplitGlobalID(ids[i])
		_, last := SplitGlobalID(ids[j-1])
		fmt.Fprintf(&b, " %d:%d-%d", g, first, last)
		i = j
	}
	return strings.TrimSpace(b.String())
}

// TestScatterPlacementGolden pins, ID by ID, where the rolling window puts
// each document: 5 groups of unequal capacity under a window of 2. The
// first batch outgrows the window's room, so group 0 takes the overflow of
// group 1's capped share in a second round and the window then advances;
// the second wraps onto group 0 and retires it; the third fills groups 4
// and 0 and retires groups 1 and 2.
func TestScatterPlacementGolden(t *testing.T) {
	caps := []int{30, 20, 25, 10, 15}
	nodes := make([]transport.NodeClient, len(caps))
	for g, cp := range caps {
		nodes[g] = transport.NewLocal(realNode(t, cp))
	}
	c, err := NewWithOptions(bg, nodes, Options{WindowM: 2})
	if err != nil {
		t.Fatal(err)
	}
	docs := testDocs(170, 53)
	for i, step := range []struct {
		n     int
		want  string
		start int
		used  []int
	}{
		{70, "0:0-24 1:0-19 0:25-29 2:0-9 3:0-9", 2, []int{30, 20, 10, 10, 0}},
		{40, "2:10-24 4:0-12 0:0-11", 4, []int{12, 20, 25, 10, 13}},
		{60, "4:13-14 0:12-29 1:0-19 2:0-19", 1, []int{30, 20, 20, 10, 15}},
	} {
		batch := docs[:step.n]
		docs = docs[step.n:]
		ids, err := c.Insert(bg, batch)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if got := runs(ids); got != step.want {
			t.Errorf("batch %d placed %s, want %s", i, got, step.want)
		}
		if c.start != step.start {
			t.Errorf("batch %d: window starts at %d, want %d", i, c.start, step.start)
		}
		if fmt.Sprint(c.used) != fmt.Sprint(step.used) {
			t.Errorf("batch %d: groups hold %v, want %v", i, c.used, step.used)
		}
	}
}

// TestPartitionedPlacementGolden pins partitioned placement ID by ID:
// every document lands on the group Router.GroupFor names, at the next
// local ID of that group, across batches.
func TestPartitionedPlacementGolden(t *testing.T) {
	r := testRouter(t, RouterConfig{Groups: 4})
	c, err := NewWithOptions(bg, testNodes(t, 4, 200), Options{Placement: PlacementPartitioned, Router: r})
	if err != nil {
		t.Fatal(err)
	}
	next := make([]uint32, 4)
	docs := testDocs(100, 59)
	for _, batch := range [][]int{{0, 60}, {60, 100}} {
		vs := docs[batch[0]:batch[1]]
		ids, err := c.Insert(bg, vs)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range vs {
			g := r.GroupFor(v)
			if want := GlobalID(g, next[g]); ids[i] != want {
				t.Fatalf("doc %d placed at %d:%d, want %d:%d", batch[0]+i,
					ids[i]>>32, uint32(ids[i]), g, next[g])
			}
			next[g]++
		}
	}
	for g, n := range next {
		if n == 0 {
			t.Errorf("group %d received nothing; the golden covers too little", g)
		}
		if c.used[g] != int(n) {
			t.Errorf("group %d counted as holding %d rows, want %d", g, c.used[g], n)
		}
	}
}
