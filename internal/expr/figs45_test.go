package expr

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"plsh/internal/core"
)

// TestFig4ArmsBuildTheServingTables: at tinyOptions, every row of Fig. 4
// builds the L tables core.Build does: item for item, in order, and bucket
// for bucket — the optimizations change how the tables are built, never what
// they hold.
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
			got := arm.build()
			if len(got) != p.L() {
				t.Fatalf("%s on %d workers: %d tables, want %d", arm.name, workers, len(got), p.L())
			}
			for l := range got {
				if !slices.Equal(got[l].AppendItems(nil), want.Table(l).AppendItems(nil)) {
					t.Fatalf("%s on %d workers: table %d holds other items than core.Build's", arm.name, workers, l)
				}
				for key := uint32(0); key < uint32(p.Buckets()); key++ {
					if g, w := got[l].Bucket(nil, key), want.Table(l).Bucket(nil, key); !slices.Equal(g, w) {
						t.Fatalf("%s on %d workers: table %d bucket %d holds %v, core.Build's %v", arm.name, workers, l, key, g, w)
					}
				}
			}
		}
	}
}

// TestFig4NotePrintsOnlyWhereMeasured: Fig. 4's note quotes a Steps I1 + I2
// split measured at N = 20 000, k = 12, m = 10, so it is printed there and
// not at CI's tiny scale (-n 1500 -k 8 -m 6), where nobody measured it.
func TestFig4NotePrintsOnlyWhereMeasured(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	measured := tinyOptions()
	measured.N, measured.Dim, measured.K, measured.M = 20000, 20000, 12, 10
	for _, tc := range []struct {
		o    Options
		note bool
	}{{tinyOptions(), false}, {measured, true}} {
		var buf bytes.Buffer
		if err := Fig4(tc.o, &buf); err != nil {
			t.Fatal(err)
		}
		if got := strings.Contains(buf.String(), "note:"); got != tc.note {
			t.Errorf("N %d, k %d, m %d: note printed %v, want %v:\n%s", tc.o.N, tc.o.K, tc.o.M, got, tc.note, buf.String())
		}
	}
}
