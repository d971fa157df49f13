package expr

import (
	"bytes"
	"regexp"
	"testing"
)

// TestTinyScaleCountsArePinned pins the counts Table 2, Fig. 5 and Recall
// print at tinyOptions. Counts do not depend on timing, so any change to how
// the runners build their indexes or sample their queries that moves one of
// them changes what the experiment measures. Fig. 5's rows share their
// counts: each arm answers the same queries over the same index. Table 2's
// dot products are PLSH's candidates within the Hamming bound; at this
// geometry (24 sign bits) the bound drops one candidate in a hundred and no
// answer, so the sign-bit check's row of Fig. 5 shares the others' counts.
func TestTinyScaleCountsArePinned(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	cases := []struct {
		run  func(Options, *bytes.Buffer) error
		want []string
	}{
		{func(o Options, w *bytes.Buffer) error { return Table2(o, w) }, []string{
			`(?m)^exhaustive\s+1500\.0\s`,
			`(?m)^inverted index\s+979\.6\s`,
			`(?m)^plsh\s+94\.2\s`,
			`(?m)^plsh\s+94\.2\s+93\.2\s`,
		}},
		{func(o Options, w *bytes.Buffer) error { return Fig5(o, w) }, []string{
			`(?m)^no optimizations\s+\S+\s+\S+\s+94\.17\s+1\.25$`,
			`(?m)^\+bitvector\s+\S+\s+\S+\s+94\.17\s+1\.25$`,
			`(?m)^\+optimized sparse DP\s+\S+\s+\S+\s+94\.17\s+1\.25$`,
			`(?m)^\+sw prefetch \(extract\)\s+\S+\s+\S+\s+94\.17\s+1\.25$`,
			`(?m)^\+large pages \(arena\)\s+\S+\s+\S+\s+94\.17\s+1\.25$`,
			`(?m)^\+sign-bit check\s+\S+\s+\S+\s+94\.17\s+1\.25$`,
		}},
		{func(o Options, w *bytes.Buffer) error { return Recall(o, w) }, []string{
			`(?m)^true R-near neighbor pairs\s+51$`,
			`(?m)^retrieved\s+50$`,
		}},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		if err := c.run(tinyOptions(), &buf); err != nil {
			t.Fatal(err)
		}
		for _, re := range c.want {
			if !regexp.MustCompile(re).MatchString(buf.String()) {
				t.Errorf("output does not match %s:\n%s", re, buf.String())
			}
		}
	}
}
