package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// metricSpec is one metric declaration of BENCHMARK.json. Bound is set
// only on end-to-end metrics.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec mirrors BENCHMARK.json, the single place metric names, units,
// directions and regression bounds are declared. The suite reads it at
// start-up instead of restating it, so a metric the program emits and the
// file does not declare (or the reverse) is a harness failure, not drift.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// findRoot walks up from the working directory to the checkout root, the
// directory holding BENCHMARK.json. The suite runs from there so that
// internal/clustertest builds cmd/plsh-node from the root module whether
// the suite was started by run.sh or by `go run -C benchmarks/suite .`.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("BENCHMARK.json not found in the working directory or any parent")
		}
		dir = parent
	}
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.RunSeconds <= 0 || len(s.Workloads) == 0 || len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: run_seconds, workloads, end_to_end and per_layer are all required", path)
	}
	return &s, nil
}

// report collects what one workload run measured. Values are keyed by
// metric name; emit refuses a second value for a name so "emitted exactly
// once" holds by construction.
type report struct {
	workload string
	values   map[string]float64
	notes    map[string]string // per-metric annotation printed beside the value
	// percentiles records, for every metric that is a percentile of a
	// latency sample, which percentile and of how many samples.
	percentiles map[string]percentile
	attempted   int64
	failed      int64
	err         error // first harness-level misuse (duplicate emit)
}

type percentile struct {
	q       float64
	samples int
}

func newReport(workload string) *report {
	return &report{workload: workload, values: map[string]float64{}, notes: map[string]string{}, percentiles: map[string]percentile{}}
}

// emitQuantile emits a percentile of an ascending nanosecond sample,
// divided by perUnit (1e3 for µs, 1e6 for ms): the want-quantile when the
// sample has ten values beyond it, else the highest percentile that does
// (tailQuantile) — the printed note and the recorded percentile say which.
func (r *report) emitQuantile(name string, sorted []int64, want, perUnit float64) {
	q := tailQuantile(len(sorted), want)
	r.emit(name, float64(quantile(sorted, q))/perUnit)
	r.percentiles[name] = percentile{q: q, samples: len(sorted)}
	r.note(name, "p%g of %d samples", 100*q, len(sorted))
}

// emitSliced emits the median over a window's slices of each slice's
// median latency, divided by perUnit.
func (r *report) emitSliced(name string, s *sliced, perUnit float64) {
	n := s.count()
	r.emit(name, s.p50()/perUnit)
	r.percentiles[name] = percentile{q: 0.5, samples: n}
	r.note(name, "median of %d slice medians, %d samples", windowSlices, n)
}

func (r *report) emit(name string, v float64) {
	if _, dup := r.values[name]; dup && r.err == nil {
		r.err = fmt.Errorf("metric %s emitted twice", name)
	}
	r.values[name] = v
}

func (r *report) note(name, format string, args ...any) {
	r.notes[name] = fmt.Sprintf(format, args...)
}

// check verifies the report against the spec: nothing undeclared was
// emitted, and every metric of the requested kinds is present.
func (r *report) check(s *benchSpec, wantE2E, wantLayers bool) error {
	if r.err != nil {
		return r.err
	}
	declared := map[string]bool{}
	for _, m := range s.EndToEnd {
		declared[m.Name] = true
		if _, ok := r.values[m.Name]; wantE2E && !ok {
			return fmt.Errorf("%s: end-to-end metric %s was not measured", r.workload, m.Name)
		}
	}
	for _, m := range s.PerLayer {
		declared[m.Name] = true
		if _, ok := r.values[m.Name]; wantLayers && !ok {
			return fmt.Errorf("%s: per-layer metric %s was not measured", r.workload, m.Name)
		}
	}
	var extra []string
	for name := range r.values {
		if !declared[name] {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return fmt.Errorf("%s: metrics %v are not declared in BENCHMARK.json", r.workload, extra)
	}
	return nil
}

// print writes every measured metric by name and unit, in the spec's
// order, then the operation counts behind the error rate.
func (r *report) print(s *benchSpec) {
	line := func(kind string, m metricSpec) {
		v, ok := r.values[m.Name]
		if !ok {
			return
		}
		fmt.Printf("%-6s %-16s %-36s %16.6g %-10s %s\n", kind, r.workload, m.Name, v, m.Unit, r.notes[m.Name])
	}
	for _, m := range s.EndToEnd {
		line("e2e", m)
	}
	for _, m := range s.PerLayer {
		line("layer", m)
	}
	rate := 0.0
	if r.attempted > 0 {
		rate = float64(r.failed) / float64(r.attempted)
	}
	fmt.Printf("ops    %-16s attempted=%d failed=%d error_rate=%.6g\n", r.workload, r.attempted, r.failed, rate)
}

// resultLine is the contract's last-line JSON object.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) resultLine(s *benchSpec, layers bool) resultLine {
	out := resultLine{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	list := s.EndToEnd
	if layers {
		list = s.PerLayer
	}
	for _, m := range list {
		out.Metrics[m.Name] = metricValue{Value: r.values[m.Name], Unit: m.Unit}
	}
	return out
}
