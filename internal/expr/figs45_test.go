package expr

import (
	"slices"
	"testing"

	"plsh/internal/core"
)

// TestFig4ArmsBuildTheServingTables: at tinyOptions, every row of Fig. 4
// builds tables that validate and hold, bucket for bucket and in order, the
// items core.Build's do — the optimizations change how the tables are
// built, never what they hold.
func TestFig4ArmsBuildTheServingTables(t *testing.T) {
	o := tinyOptions()
	c := o.twitterCorpus()
	fam, err := lshFamily(o)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Build(fam, c.Mat, core.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	p := fam.Params()
	for _, workers := range []int{1, 3} {
		for _, arm := range fig4Arms(fam, c.Mat, workers) {
			got, err := core.StaticFromTables(fam, c.Mat.Rows(), arm.build(), 1)
			if err != nil {
				t.Fatalf("%s on %d workers: %v", arm.name, workers, err)
			}
			for l := 0; l < p.L(); l++ {
				for key := uint32(0); key < uint32(p.Buckets()); key++ {
					if g, w := got.Table(l).Bucket(nil, key), want.Table(l).Bucket(nil, key); !slices.Equal(g, w) {
						t.Fatalf("%s on %d workers: table %d bucket %d holds %v, core.Build's %v", arm.name, workers, l, key, g, w)
					}
				}
			}
		}
	}
}
