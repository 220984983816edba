package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// Toy sizes: every workload at a scale that runs in about a second.
var (
	smallPoint     = pointParams{n: 128, d: 48, setups: 2, rebuilds: 3, conns: 1}
	smallFanout    = fanoutParams{n: 256, d: 64, batch: 64, zipf: 0.9, setups: 2, rebuilds: 3}
	smallChurn     = churnParams{n: 128, d: 48, setups: 2, rate: 50}
	smallReproduce = reproduceParams{n: 128, dAlg1: 40, dThm2: 48, demands: 256, setups: 2}
)

func smallRun(name string) workloadFunc {
	switch name {
	case "point":
		return func(cfg runConfig) (tally, map[string]metric, error) { return runPointWith(cfg, smallPoint, nil) }
	case "fanout":
		return func(cfg runConfig) (tally, map[string]metric, error) { return runFanoutWith(cfg, smallFanout) }
	case "churn":
		return func(cfg runConfig) (tally, map[string]metric, error) { return runChurnWith(cfg, smallChurn) }
	default:
		return func(cfg runConfig) (tally, map[string]metric, error) { return runReproduceWith(cfg, smallReproduce) }
	}
}

// declared reads the metric and workload names BENCHMARK.json declares.
func declared(t *testing.T) (workloads, endToEnd, perLayer []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		workloads = append(workloads, w.Name)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return workloads, endToEnd, perLayer
}

// TestWorkloadsReportDeclaredMetrics runs every declared workload in both
// modes and requires a passing run that reports exactly the declared
// metrics.
func TestWorkloadsReportDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	names, e2e, layers := declared(t)
	host := calibrateHost()
	for _, name := range names {
		if _, ok := workloads[name]; !ok {
			t.Fatalf("BENCHMARK.json declares workload %q the program does not run", name)
		}
		for _, trace := range []bool{false, true} {
			cfg := runConfig{workload: name, seed: 3, window: 400 * time.Millisecond, trace: trace, out: t.TempDir()}
			tl, ms, err := smallRun(name)(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			res := finish(cfg, host, tl, ms)
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("%s trace=%v: %d of %d checks failed: %v", name, trace, res.Failed, res.Attempted, tl.notes)
			}
			want := e2e
			if trace {
				want = layers
			}
			for _, m := range want {
				if _, ok := res.Metrics[m]; !ok {
					t.Errorf("%s trace=%v: metric %s missing", name, trace, m)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics reported, %d declared", name, trace, len(res.Metrics), len(want))
			}
		}
	}
}

// TestCorruptedExpectedAnswerFails corrupts the expected answers and
// requires the run to count failures and exit non-zero.
func TestCorruptedExpectedAnswerFails(t *testing.T) {
	cfg := runConfig{workload: "point", seed: 1, window: 200 * time.Millisecond}
	tl, ms, err := runPointWith(cfg, smallPoint, func(e *apsp) {
		for i := range e.d {
			e.d[i] ^= 1
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	res := finish(cfg, hostRecord{}, tl, ms)
	if res.Failed == 0 || res.Correct || exitCode(res) == 0 {
		t.Fatalf("corrupted answers passed: failed=%d correct=%v", res.Failed, res.Correct)
	}
	if r := res.Metrics["success_rate"].Value; r >= 1 {
		t.Fatalf("success_rate %v with %d failures", r, res.Failed)
	}
}

func TestParseTextDist(t *testing.T) {
	a, err := parseTextDist("dist 3 77 = 2 exact=t bound=4 us=1.5\n", 3, 77)
	if err != nil || a.Dist != 2 || !a.Exact || a.Bound != 4 {
		t.Fatalf("got %+v, %v", a, err)
	}
	if a, err = parseTextDist("dist 3 77 = unreachable\n", 3, 77); err != nil || a.Dist != -1 {
		t.Fatalf("unreachable: got %+v, %v", a, err)
	}
	if _, err = parseTextDist("err bad\n", 3, 77); err == nil {
		t.Fatal("error response parsed")
	}
}

func TestHistQuantileWithinBucketWidth(t *testing.T) {
	var h hist
	for v := 1; v <= 10000; v++ {
		h.add(float64(v))
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want := q * 10000
		if got := h.quantile(q); got < want*0.99 || got > want*1.01 {
			t.Errorf("quantile(%v) = %v, want %v ± 1%%", q, got, want)
		}
	}
	var empty hist
	if got := empty.quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %v", got)
	}
}

func TestHistTrimmedMean(t *testing.T) {
	var h hist
	for v := 1; v <= 100; v++ {
		h.add(float64(v))
	}
	// The mean of 1..99, and of 1..100, within the 1% bucket width.
	for _, c := range []struct{ q, want float64 }{{0.99, 50}, {1, 50.5}} {
		if got := h.trimmedMean(c.q); got < c.want*0.99 || got > c.want*1.01 {
			t.Errorf("trimmedMean(%v) = %v, want %v ± 1%%", c.q, got, c.want)
		}
	}
	var empty hist
	if got := empty.trimmedMean(0.99); got != 0 {
		t.Errorf("empty trimmedMean = %v", got)
	}
}

// TestQueriesPerSecondLeavesOutStalls checks that a stall on fewer than 1%
// of the gaps does not move the throughput, while a uniform slowdown does.
func TestQueriesPerSecondLeavesOutStalls(t *testing.T) {
	steady := func(gap float64, stalls int) loadStats {
		ls := loadStats{conns: 2, queries: 2000, requests: 1000}
		for i := 0; i < 1000; i++ {
			g := gap
			if i < stalls {
				g = 5000 // a 5 ms stall
			}
			ls.gaps.add(g)
		}
		return ls
	}
	base := steady(20, 0)
	want := 2 * 2 * 1e6 / 20.0 // two connections, two queries a request, one request per 20 µs
	if got := base.queriesPerSecond(); got < want*0.99 || got > want*1.01 {
		t.Fatalf("queriesPerSecond = %v, want %v ± 1%%", got, want)
	}
	stalled := steady(20, 9)
	if got, ref := stalled.queriesPerSecond(), base.queriesPerSecond(); got != ref {
		t.Errorf("9 stalls in 1000 gaps moved the throughput from %v to %v", ref, got)
	}
	slower := steady(25, 0)
	if got := slower.queriesPerSecond(); got > want*0.81 {
		t.Errorf("25%% longer gaps gave %v, want about %v", got, want*0.8)
	}
	if got := (&loadStats{}).queriesPerSecond(); got != 0 {
		t.Errorf("no requests: queriesPerSecond = %v", got)
	}
}
