package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
)

// checkRepeat is -check-repeat: it runs each selected workload as two
// sets of runs — every run a fresh process with fresh data directories,
// run i of either set on seed+i — and prints, per end-to-end metric, both
// medians, how far apart they are (the larger over the smaller, in either
// direction: the sets are the same code, so a second set that reads better
// is as much a failure to repeat as one that reads worse), each set's
// quartile spread, and the bound from BENCHMARK.json. Two sets of the same
// code that disagree by more than a metric's own bound mean the metric
// cannot gate anything: exit non-zero.
func checkRepeat(spec *benchSpec, names []string, seed uint64, runs int) int {
	bad := 0
	for _, name := range names {
		var sets [2]map[string][]float64
		for s := range sets {
			sets[s] = map[string][]float64{}
			for i := 0; i < runs; i++ {
				res, err := runOnce(name, seed+uint64(i))
				if err != nil {
					return fail(fmt.Errorf("%s set %d run %d: %w", name, s+1, i+1, err))
				}
				if !res.Correct {
					fmt.Printf("%s set %d run %d: %d of %d operations failed\n", name, s+1, i+1, res.Failed, res.Attempted)
					bad++
				}
				for k, v := range res.Metrics {
					sets[s][k] = append(sets[s][k], v.Value)
				}
			}
		}
		fmt.Printf("%-20s %-20s %14s %14s %9s %9s %9s %7s\n", name, "metric", "median A", "median B", "apart by", "spread A", "spread B", "bound")
		for _, m := range spec.EndToEnd {
			a, b := sets[0][m.Name], sets[1][m.Name]
			ma, mb := median(a), median(b)
			gap := apart(ma, mb)
			verdict := ""
			if gap > m.Bound {
				verdict = "  DISAGREE"
				bad++
			}
			fmt.Printf("%-20s %-20s %14.6g %14.6g %8.2f%% %8.2f%% %8.2f%% %6.3g%%%s\n",
				"", m.Name, ma, mb, 100*gap, 100*spread(a), 100*spread(b), 100*m.Bound, verdict)
		}
		// Every run's reading, in run order, so that a disturbed stretch of
		// the machine can be told from a metric that does not repeat.
		for _, m := range spec.EndToEnd {
			fmt.Printf("%-20s %-20s A %.5g\n%-20s %-20s B %.5g\n", "", m.Name, sets[0][m.Name], "", "", sets[1][m.Name])
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}

// apart is how far two medians of the same code lie from each other: the
// larger over the smaller, less one. It does not ask which set is better.
func apart(a, b float64) float64 { return max(a, b)/min(a, b) - 1 }

// spread is the distance between the first and third quartile as a share
// of the median — Python's statistics.quantiles(v, n=4), which the
// contract's acceptance check uses.
func spread(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(k int) float64 { // exclusive method: position k(n+1)/4, 1-based
		pos := float64(k*(n+1)) / 4
		j := min(max(int(pos), 1), n-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return (q(3) - q(1)) / median(s)
}

func runOnce(workload string, seed uint64) (*resultLine, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatUint(seed, 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	var lastLine []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			lastLine = slices.Clone(sc.Bytes())
		}
	}
	var res resultLine
	if err := json.Unmarshal(lastLine, &res); err != nil {
		return nil, fmt.Errorf("last line of output is not the result object: %w", err)
	}
	return &res, nil
}
