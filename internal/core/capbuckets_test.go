package core

import (
	"reflect"
	"slices"
	"testing"
)

// TestCapBucketsBoundsAndDeterminism: after CapBuckets(r) every bucket
// holds min(r, original) items, each a subset of the original bucket;
// under-capacity buckets are untouched; and the per-table seeding makes
// the result identical across worker counts.
func TestCapBucketsBoundsAndDeterminism(t *testing.T) {
	fam, mat := testSetup(t, 500)
	build := func() *Static {
		st, err := Build(fam, mat, Defaults())
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	const R = 2
	ref := build()
	st := build()
	st.CapBuckets(R, 99, 2)

	p := fam.Params()
	for l := 0; l < st.NumTables(); l++ {
		tbl, rtbl := st.Table(l), ref.Table(l)
		for key := 0; key < p.Buckets(); key++ {
			b, rb := tbl.Bucket(uint32(key)), rtbl.Bucket(uint32(key))
			if len(rb) <= R {
				if !reflect.DeepEqual(b, rb) {
					t.Fatalf("table %d bucket %d: under-capacity bucket perturbed", l, key)
				}
				continue
			}
			if len(b) != R {
				t.Fatalf("table %d bucket %d: %d items after capping to %d", l, key, len(b), R)
			}
			orig := map[uint32]bool{}
			for _, id := range rb {
				orig[id] = true
			}
			for _, id := range b {
				if !orig[id] {
					t.Fatalf("table %d bucket %d: survivor %d not in the original bucket", l, key, id)
				}
			}
		}
	}

	again := build()
	again.CapBuckets(R, 99, 7) // same seed, different workers
	for l := 0; l < st.NumTables(); l++ {
		a, b := st.Table(l), again.Table(l)
		if !slices.Equal(a.AppendOffsets(nil), b.AppendOffsets(nil)) || !reflect.DeepEqual(a.Items, b.Items) {
			t.Fatalf("table %d: capping differs across worker counts", l)
		}
	}

	// r <= 0 is a no-op, not a wipe.
	noop := build()
	noop.CapBuckets(0, 99, 2)
	for l := 0; l < noop.NumTables(); l++ {
		a, b := noop.Table(l), ref.Table(l)
		if !slices.Equal(a.AppendOffsets(nil), b.AppendOffsets(nil)) || !reflect.DeepEqual(a.Items, b.Items) {
			t.Fatalf("table %d: CapBuckets(0) changed the table", l)
		}
	}
}
