package clustertest

import "testing"

// TestReserveAddrsDistinct: one fleet's addresses are pairwise distinct —
// reserving by listen-on-0-and-close one at a time let the kernel hand the
// same port out twice, and one process then answered as two replicas.
func TestReserveAddrsDistinct(t *testing.T) {
	addrs, err := reserveAddrs(256)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]int, len(addrs))
	for i, a := range addrs {
		if j, dup := seen[a]; dup {
			t.Fatalf("addresses %d and %d are both %s", j, i, a)
		}
		seen[a] = i
	}
}
