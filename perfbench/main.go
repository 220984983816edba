// Command perfbench is the repository benchmark. It builds the system
// from generated inputs, drives it through its public packages from a
// single process, checks every answer, and prints one JSON result line.
//
//	perfbench --workload point --seed 1 --seconds 20 --trace 0
//
// Workloads (see README.md for why each exists):
//
//	point      single dist frames against an exact-table server
//	fanout     256-query batch frames through a router and a 2-worker fleet
//	churn      dist frames beside an open-loop stream of edge updates
//	reproduce  the paper's offline pipeline: Algorithm 1 + Theorem 2 + Theorem 1
//
// With --trace 0 the result carries the end-to-end metrics. With --trace 1
// the run is split into an untraced and a traced half, every call into a
// layer is wrapped in a span from this package's recorder, and the result
// carries the per-layer metrics plus the tracing overhead. The last line
// of standard output is the result; a host calibration record precedes it.
// The exit code is 1 when any answer or check failed.

// wire.Client arms a time.After per request. Under the go 1.22 timer
// semantics this module's go line would select, each such timer stays on
// the heap until it fires, 30 s later: a closed loop at 40k requests/s
// then holds over a million timers and the process passes 500 MiB within
// 20 s. The Go 1.23 semantics collect unreferenced timers.
//
//go:debug asynctimerchan=0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     uint64
	window   time.Duration // the measured window
	trace    bool
	out      string // directory for span dumps; empty skips the dump
}

// metric is one named value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output contract: the last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts operations and failures; a wrong answer is a failure.
type tally struct {
	attempted, failed int64
	notes             []string // first few failure descriptions, for stderr
}

func (t *tally) add(ok bool, what string, args ...any) {
	if !t.check(ok) {
		t.note(what, args...)
	}
}

// check counts one checked operation and reports whether it passed. The
// per-answer paths call it and describe a failure with note only then, so
// a passing answer boxes no arguments.
func (t *tally) check(ok bool) bool {
	t.attempted++
	if !ok {
		t.failed++
	}
	return ok
}

func (t *tally) note(what string, args ...any) {
	if len(t.notes) < 8 {
		t.notes = append(t.notes, fmt.Sprintf(what, args...))
	}
}

// merge folds another tally into t.
func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, n := range o.notes {
		if len(t.notes) < 8 {
			t.notes = append(t.notes, n)
		}
	}
}

// workloadFunc runs one workload and returns its tally and metrics.
type workloadFunc func(cfg runConfig) (tally, map[string]metric, error)

var workloads = map[string]workloadFunc{
	"point":     runPoint,
	"fanout":    runFanout,
	"churn":     runChurn,
	"reproduce": runReproduce,
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	var (
		cfg     runConfig
		seed    int64
		seconds int
		trace   int
	)
	flag.StringVar(&cfg.workload, "workload", "", "point | fanout | churn | reproduce")
	flag.Int64Var(&seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.IntVar(&seconds, "seconds", 20, "length of the measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer run, 0 the untraced end-to-end run")
	flag.StringVar(&cfg.out, "out", "", "directory for the traced run's span dump (empty skips it)")
	flag.Parse()
	run, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want point, fanout, churn or reproduce)\n", cfg.workload)
		return 2
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	cfg.seed = uint64(seed)
	cfg.window = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1

	// Calibrate at the runtime's default parallelism, so the record shows
	// what the host delivers, then measure on one P: on a shared 2-vCPU
	// host the second CPU comes and goes with other tenants' load, and at
	// GOMAXPROCS=2 that swung throughput and build times between runs by
	// far more than the bounds allow. One P keeps the figures steady.
	host := calibrateHost()
	runtime.GOMAXPROCS(1)
	host.GOMAXPROCS = 1
	// At the default GOGC the churn update path, which allocates about a
	// MiB per update, starts a collection every few updates; its p90 then
	// sits on the knee between updates that overlap a collection and those
	// that do not, and moved by a quarter between runs. At 400 it is steady.
	debug.SetGCPercent(400)
	hostLine, _ := json.Marshal(map[string]any{"host": host})
	fmt.Println(string(hostLine))

	t, ms, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	for _, n := range t.notes {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", n)
	}
	res := finish(cfg, host, t, ms)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return exitCode(res)
}

// finish completes a workload's metrics and builds the result line.
func finish(cfg runConfig, host hostRecord, t tally, ms map[string]metric) result {
	if cfg.trace {
		host.addMetrics(ms)
		var g speedGauge
		for i := 0; i < 20; i++ {
			g.take()
		}
		ms["host.speed_gauge_us"] = metric{g.mean(), "us"}
	} else {
		// The share of operations that succeeded: the failure count itself
		// is 0 on a correct run, and a metric must never read 0.
		ms["success_rate"] = metric{1 - float64(t.failed)/math.Max(1, float64(t.attempted)), "ratio"}
	}
	return result{Correct: t.failed == 0 && t.attempted > 0, Attempted: t.attempted, Failed: t.failed, Metrics: ms}
}

// exitCode is 0 only for a run whose every answer and check passed.
func exitCode(r result) int {
	if r.Correct {
		return 0
	}
	return 1
}

// heapMiB forces collections and returns the live heap in MiB. The
// second collection of each sample frees what the first moved into
// sync.Pool victim caches, which still count as live after one. The
// smallest of three samples 50 ms apart leaves out objects that are live
// only while a closed connection's goroutines finish.
func heapMiB() float64 {
	least := math.Inf(1)
	for i := 0; i < 3; i++ {
		time.Sleep(50 * time.Millisecond)
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		least = math.Min(least, float64(ms.HeapAlloc)/(1<<20))
	}
	return least
}
