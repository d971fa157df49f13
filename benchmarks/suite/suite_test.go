package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
	"time"
)

// tiny is the test scale: the same code paths as full in about a second
// per workload.
var tiny = sizes{
	n0:            2000,
	preloadBatch:  100,
	setups:        2,
	recoverDocs:   200,
	recoverOpens:  2,
	mergeTrigger:  300,
	minMerges:     1,
	streamBatch:   50,
	paceBatch:     10,
	paceEveryMS:   20,
	searchBatch:   16,
	minCalls:      200, // a p95 with ten samples beyond it; the p99 readings fall back
	recallQueries: 60,
	queryPool:     500,
	ladderQueries: 160,
	ladderBatches: 20,
	ladderBulk:    1000,
}

func testSpec(t *testing.T) *benchSpec {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func testEnv(t *testing.T, layers bool) *env {
	return &env{sz: tiny, seed: 7, seconds: 1, layers: layers, tmp: t.TempDir()}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSpecShape holds BENCHMARK.json to the benchmark contract's limits.
func TestSpecShape(t *testing.T) {
	spec := testSpec(t)
	if len(spec.Workloads) < 2 || len(spec.Workloads) > 8 {
		t.Errorf("%d workloads, want 2..8", len(spec.Workloads))
	}
	if len(spec.EndToEnd) > 16 || len(spec.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the caps of 16 and 128", len(spec.EndToEnd), len(spec.PerLayer))
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", spec.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("illegal name %q", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range spec.Workloads {
		name(w.Name)
		if findWorkload(w.Name) == nil {
			t.Errorf("workload %q is declared but not implemented", w.Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %q: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	// fleet_mixed is implemented and not declared: its readings on a shared
	// host do not repeat within any bound the contract allows (see README).
	if len(workloads) != len(spec.Workloads)+1 || seen["fleet_mixed"] {
		t.Errorf("%d workloads implemented, %d declared; want every one but fleet_mixed declared", len(workloads), len(spec.Workloads))
	}
	setup := false
	for _, m := range spec.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: illegal unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("end_to_end must hold setup_s, unit s, better lower")
	}
	for _, m := range spec.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: illegal unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		if m.Bound != 0 {
			t.Errorf("%s: per-layer metrics carry no bound", m.Name)
		}
	}
}

// checkReport asserts what the issue asks of every run: each declared
// metric of the kind measured is emitted exactly once (emit refuses a
// second value, check a missing or undeclared one), no operation failed,
// and every reported percentile has at least ten samples beyond it.
func checkReport(t *testing.T, rep *report, layers bool) {
	t.Helper()
	if err := rep.check(testSpec(t), !layers, layers); err != nil {
		t.Error(err)
	}
	if rep.failed != 0 || rep.attempted == 0 {
		t.Errorf("%s: %d of %d operations failed", rep.workload, rep.failed, rep.attempted)
	}
	for name, p := range rep.percentiles {
		if beyond := float64(p.samples) * (1 - p.q); beyond < 10 {
			t.Errorf("%s: p%g of %d samples has only %.1f beyond it", name, 100*p.q, p.samples, beyond)
		}
	}
	for _, name := range []string{"search_p50_us", "plsh.search_p95_us", "plsh.insert_p50_ms", "plsh.search_p99_us", "plsh.search_p999_us", "plsh.insert_p99_ms"} {
		if _, ok := rep.percentiles[name]; !ok {
			t.Errorf("%s: percentile %s did not record its sample count", rep.workload, name)
		}
	}
}

func TestInProcessWorkloads(t *testing.T) {
	for _, name := range []string{"static_query", "stream_ingest"} {
		t.Run(name, func(t *testing.T) {
			e := testEnv(t, false)
			rep, err := runWorkload(context.Background(), e, findWorkload(name))
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, rep, false)
			if name == "stream_ingest" && rep.values["node.merges"] < 1 {
				t.Errorf("stream_ingest saw %v background merges in its window", rep.values["node.merges"])
			}
		})
	}
}

// TestLadder runs the traced ladder and one traced workload run, and
// checks the span file: every request's layers add up to its top-level
// span (layerMedians fails the ladder otherwise), and the file parses.
func TestLadder(t *testing.T) {
	e := testEnv(t, true)
	traceFile := filepath.Join(e.tmp, "trace.jsonl")
	ladder, err := runLadder(context.Background(), e, traceFile)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runWorkload(context.Background(), e, findWorkload("static_query"))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range ladder {
		rep.emit(k, v)
	}
	checkReport(t, rep, true)

	f, err := os.Open(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("trace line %q: %v", sc.Text(), err)
		}
		if s.End < s.Start || s.Name == "" || s.Req == 0 {
			t.Fatalf("malformed span %+v", s)
		}
		spans = append(spans, s)
	}
	layers := map[string]bool{}
	for _, req := range byRequest(spans) {
		var sum int64
		for layer, ns := range selfByLayer(req) {
			layers[layer] = true
			sum += ns
		}
		if top := req[0].End - req[0].Start; sum != top {
			t.Fatalf("request %d: layers sum to %d ns, top-level span is %d ns", req[0].Req, sum, top)
		}
	}
	for _, want := range []string{"cluster", "transport", "node"} {
		if !layers[want] {
			t.Errorf("no %s spans in the trace", want)
		}
	}
}

// TestSelfByLayer: a scatter whose two transport children overlap, each
// with a node child. Every instant belongs to the deepest active layer,
// overlap counted once.
func TestSelfByLayer(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Req: 1, Name: "cluster.search", Start: 0, End: 100},
		{ID: 2, Parent: 1, Req: 1, Name: "transport.search", Start: 10, End: 70},
		{ID: 3, Parent: 2, Req: 1, Name: "node.search", Start: 20, End: 60},
		{ID: 4, Parent: 1, Req: 1, Name: "transport.search", Start: 15, End: 90},
		{ID: 5, Parent: 4, Req: 1, Name: "node.search", Start: 30, End: 80},
	}
	got := selfByLayer(spans)
	// node: [20,80) = 60. transport: [10,20) + [80,90) = 20. cluster: the
	// rest of [0,100) = 20.
	want := map[string]int64{"cluster": 20, "transport": 20, "node": 60}
	for layer, ns := range want {
		if got[layer] != ns {
			t.Errorf("%s self time = %d, want %d (all: %v)", layer, got[layer], ns, got)
		}
	}
	// A single chain reduces to duration minus what the child covers.
	chain := selfByLayer(spans[:3])
	if chain["cluster"] != 40 || chain["transport"] != 20 || chain["node"] != 40 {
		t.Errorf("chain self times = %v", chain)
	}
}

func TestQuantiles(t *testing.T) {
	s := make([]int64, 1000)
	for i := range s {
		s[i] = int64(i + 1)
	}
	if got := quantile(s, 0.5); got != 500 {
		t.Errorf("p50 = %d, want 500", got)
	}
	if got := quantile(s, 0.99); got != 990 {
		t.Errorf("p99 = %d, want 990", got)
	}
	if got := tailQuantile(1000, 0.999); got != 0.99 {
		t.Errorf("highest supported percentile of 1000 samples = %v, want 0.99", got)
	}
	if got := tailQuantile(120, 0.99); got != 0.9 {
		t.Errorf("highest supported percentile of 120 samples = %v, want 0.9", got)
	}
	// Python's statistics.quantiles([1..10], n=4) is [2.75, 5.5, 8.25].
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := spread(v), (8.25-2.75)/5.5; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
	// Two sets of one binary disagree as much when the second reads better.
	if a, b := apart(100, 140), apart(140, 100); a != b || a < 0.39 || a > 0.41 {
		t.Errorf("apart(100, 140) = %v, apart(140, 100) = %v, want 0.4 both ways", a, b)
	}
}

// TestSliced: the gated timings are medians over the window's slices, so a
// burst that lands in fewer than half of them moves neither.
func TestSliced(t *testing.T) {
	var s sliced
	for i := 0; i < windowSlices; i++ {
		lat, calls := int64(100), 10
		if i < 3 { // three disturbed slices: ten times slower, a tenth of the calls
			lat, calls = 1000, 1
		}
		for c := 0; c < calls; c++ {
			s.add(i, lat+int64(c), time.Duration(i+1)*time.Second)
		}
	}
	if got := s.p50(); got != 104 {
		t.Errorf("p50 = %v, want the quiet slices' 104", got)
	}
	if got := s.rate(16); got != 160 {
		t.Errorf("rate = %v, want the quiet slices' 160 a second", got)
	}
	if got := s.count(); got != 3+10*(windowSlices-3) {
		t.Errorf("count = %d", got)
	}
	if all := s.sorted(); !slices.IsSorted(all) || len(all) != s.count() {
		t.Errorf("sorted() = %v", all)
	}
	// A slice in which nothing completed reads 0.
	var gap sliced
	gap.add(0, 5, time.Second)
	gap.add(2, 5, 3*time.Second)
	if r := gap.rate(1); r != 0 {
		t.Errorf("rate of a mostly empty window = %v, want 0", r)
	}
}

// TestFleetWorkloads spawns real plsh-node processes; it skips where no
// Go toolchain can build them.
func TestFleetWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns plsh-node processes")
	}
	// internal/clustertest builds cmd/plsh-node from the module of the
	// working directory: the repository root, not this nested module.
	t.Chdir(filepath.Join("..", ".."))
	for _, name := range []string{"fleet_mixed", "fleet_routed_batch"} {
		t.Run(name, func(t *testing.T) {
			e := testEnv(t, false)
			defer e.killFleets()
			rep, err := runWorkload(context.Background(), e, findWorkload(name))
			if errors.Is(err, errNoToolchain) {
				t.Skip(err)
			}
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, rep, false)
		})
	}
}
