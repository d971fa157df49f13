package perfmodel

import (
	"testing"

	"plsh/internal/corpus"
)

// TestReferenceRunCountsArePinned pins the work FitQuery's reference runs
// count at both reference points. The counts are what the fit divides the
// measured phase times by, so they must not move when the measurement is
// restructured.
func TestReferenceRunCountsArePinned(t *testing.T) {
	mat := corpus.Generate(corpus.Twitter(3000, 5000, 3)).Mat
	fc := FitConfig{}.withDefaults()
	want := [2]struct{ collisions, unique float64 }{{10997, 5086}, {17045, 3563}}
	for i, pt := range refPoints {
		r, err := Costs{}.referenceRun(mat, pt.k, pt.m, fc)
		if err != nil {
			t.Fatal(err)
		}
		if r.collisions != want[i].collisions || r.unique != want[i].unique {
			t.Errorf("(k, m) = (%d, %d): collisions %v unique %v, want %v %v",
				pt.k, pt.m, r.collisions, r.unique, want[i].collisions, want[i].unique)
		}
	}
}
