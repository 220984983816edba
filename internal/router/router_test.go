package router

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/spanner"
)

// testOracle builds worker i's replica of the standard 128-node serving
// fixture. Replicas are deterministic — every worker must answer
// identically for the router's merge to be meaningful.
func testOracle(t testing.TB) func(i int) (*oracle.Oracle, error) {
	t.Helper()
	return func(i int) (*oracle.Oracle, error) {
		g := gen.MustRandomRegular(128, 32, rng.New(3))
		dc, err := core.Build(g, core.Options{
			Algorithm: core.AlgoExpander,
			Seed:      3,
			Expander:  spanner.ExpanderOptions{EnsureConnected: true},
		})
		if err != nil {
			return nil, err
		}
		return oracle.New(dc, oracle.Options{Landmarks: 8})
	}
}

// startFleet boots n workers plus a router over them, with test cleanup.
func startFleet(t testing.TB, n int, opts Options) (*LocalFleet, *Router) {
	t.Helper()
	fleet, err := StartLocalFleet(n, testOracle(t), server.Config{})
	if err != nil {
		t.Fatalf("StartLocalFleet: %v", err)
	}
	t.Cleanup(fleet.Close)
	opts.Workers = fleet.Addrs()
	r, err := New(opts)
	if err != nil {
		t.Fatalf("router.New: %v", err)
	}
	t.Cleanup(func() { r.Close() })
	return fleet, r
}

// refOracle is the single-process reference the routed answers must match.
func refOracle(t testing.TB) *oracle.Oracle {
	t.Helper()
	o, err := testOracle(t)(0)
	if err != nil {
		t.Fatalf("reference oracle: %v", err)
	}
	return o
}

func testQueries(n int) []oracle.Query {
	r := rng.New(42)
	qs := make([]oracle.Query, n)
	for i := range qs {
		qs[i] = oracle.Query{U: int32(r.Intn(128)), V: int32(r.Intn(128))}
	}
	// A few invalid ones: the router must preserve sentinel semantics.
	if n >= 4 {
		qs[1] = oracle.Query{U: -3, V: 5}
		qs[n/2] = oracle.Query{U: 5, V: 1 << 20}
	}
	return qs
}

// TestRoutedBatchMatchesSingleProcess is the core property: a batch fanned
// across 3 workers merges back byte-identical to oracle.AnswerBatch.
func TestRoutedBatchMatchesSingleProcess(t *testing.T) {
	_, r := startFleet(t, 3, Options{HealthInterval: -1})
	ref := refOracle(t)

	for _, size := range []int{1, 2, 7, 64, 500} {
		qs := testQueries(size)
		got, err := r.AnswerBatch(qs)
		if err != nil {
			t.Fatalf("AnswerBatch(%d): %v", size, err)
		}
		want := ref.AnswerBatch(qs)
		if len(got) != len(want) {
			t.Fatalf("AnswerBatch(%d): %d answers, want %d", size, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("batch %d answer %d: routed %+v, single-process %+v", size, i, got[i], want[i])
			}
		}
	}
	if r.Counter("chunks") < 3 {
		t.Fatalf("chunks = %d; the 500-query batch should have fanned out", r.Counter("chunks"))
	}
}

// TestRoutedDistMatches checks the single-query path.
func TestRoutedDistMatches(t *testing.T) {
	_, r := startFleet(t, 2, Options{HealthInterval: -1})
	ref := refOracle(t)
	for _, q := range testQueries(20)[:8] {
		if q.U < 0 || q.V < 0 || q.U >= 128 || q.V >= 128 {
			continue
		}
		got, err := r.Dist(q.U, q.V)
		if err != nil {
			t.Fatalf("Dist(%d,%d): %v", q.U, q.V, err)
		}
		want, err := ref.Dist(q.U, q.V)
		if err != nil {
			t.Fatalf("reference Dist: %v", err)
		}
		if got != want {
			t.Fatalf("Dist(%d,%d): routed %+v, single-process %+v", q.U, q.V, got, want)
		}
	}
}

// TestRouterDistOutOfRange checks deterministic request errors surface as
// errors (not retried into a fleet failure).
func TestRouterDistOutOfRange(t *testing.T) {
	_, r := startFleet(t, 2, Options{HealthInterval: -1})
	_, err := r.Dist(-1, 5)
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("Dist(-1,5) err = %v, want out-of-range", err)
	}
	if r.Counter("failures") != 0 {
		t.Fatalf("a request error counted as a fleet failure")
	}
}

// TestRouterAsBackend fronts the router with a server.Server and runs the
// text protocol against the fleet — the dcrouter wiring in miniature.
func TestRouterAsBackend(t *testing.T) {
	_, r := startFleet(t, 2, Options{HealthInterval: -1})
	front := server.NewBackend(r, server.Config{})

	out := serveScript(t, front, "dist 0 1\nbatch 2\ndist 0 1\ndist 1 0\nstats\nroute 0 1\nquit\n")
	if len(out) != 5 {
		t.Fatalf("got %d response lines: %q", len(out), out)
	}
	if !strings.HasPrefix(out[0], "dist 0 1 = ") {
		t.Fatalf("dist response: %q", out[0])
	}
	if stripLatency(out[0]) != out[1] {
		t.Fatalf("batch answer %q != dist answer %q", out[1], out[0])
	}
	if !strings.Contains(out[3], "router") || !strings.Contains(out[3], "shard0") || !strings.Contains(out[3], "shard1") {
		t.Fatalf("stats line misses per-shard counters: %q", out[3])
	}
	if !strings.HasPrefix(out[4], "err ") || !strings.Contains(out[4], "route") {
		t.Fatalf("route through router: %q, want err", out[4])
	}
}

// TestRouterMetrics checks the obs registry surface: router_* counters
// and per-shard families on /metrics.
func TestRouterMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	_, r := startFleet(t, 2, Options{HealthInterval: -1, Registry: reg})
	if _, err := r.AnswerBatch(testQueries(16)); err != nil {
		t.Fatalf("AnswerBatch: %v", err)
	}

	srv := httptest.NewServer(obs.NewDebugMux(reg, nil))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"router_batches_total", "router_chunks_total",
		"router_shard0_requests_total", "router_shard1_queries_total",
		"router_healthy_workers 2", "router_workers 2",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics misses %q", want)
		}
	}
}

// TestRouterWorkerTransitions kills a worker under traffic and checks
// the health flip is counted, logged under component=router, and
// exported as router_worker_transitions_total{dir="down"}; a recovery
// flip (forced, since a stopped local worker cannot restart) counts and
// logs the up direction the same way.
func TestRouterWorkerTransitions(t *testing.T) {
	reg := obs.NewRegistry()
	var logBuf strings.Builder // slog's handler serializes writes
	fleet, r := startFleet(t, 2, Options{
		HealthInterval: -1,
		Registry:       reg,
		Log:            obs.NewLogger(&logBuf, slog.LevelInfo),
		RequestTimeout: 5 * time.Second,
	})

	if _, err := r.AnswerBatch(testQueries(16)); err != nil {
		t.Fatalf("warmup batch: %v", err)
	}
	if up, down := r.TransitionCounts(); up != 0 || down != 0 {
		t.Fatalf("transitions before any fault = %d/%d (initial marking must not count)", up, down)
	}

	fleet.StopWorker(0)
	var down int64
	deadline := time.Now().Add(10 * time.Second)
	for down == 0 && time.Now().Before(deadline) {
		if _, err := r.AnswerBatch(testQueries(16)); err != nil {
			t.Fatalf("batch with one dead worker: %v", err)
		}
		_, down = r.TransitionCounts()
	}
	if down != 1 {
		t.Fatalf("down transitions = %d, want 1", down)
	}
	if !strings.Contains(logBuf.String(), "msg=\"worker down\"") ||
		!strings.Contains(logBuf.String(), "component=router") {
		t.Errorf("worker death not logged:\n%s", logBuf.String())
	}

	// Force the survivor unhealthy; the next successful request flips it
	// back up through the same markHealth path.
	r.markHealth(r.shards[1], false, "test")
	if _, err := r.AnswerBatch(testQueries(8)); err != nil {
		t.Fatalf("recovery batch: %v", err)
	}
	up, _ := r.TransitionCounts()
	if up != 1 {
		t.Fatalf("up transitions = %d, want 1", up)
	}
	if !strings.Contains(logBuf.String(), "msg=\"worker up\"") {
		t.Errorf("worker recovery not logged:\n%s", logBuf.String())
	}

	snap := reg.Snapshot()
	if got := snap.Counters[`router_worker_transitions{dir="down"}`]; got != 2 {
		// worker 0's death plus the forced flip on worker 1
		t.Errorf(`transitions{dir="down"} = %d, want 2`, got)
	}
	if got := snap.Counters[`router_worker_transitions{dir="up"}`]; got != 1 {
		t.Errorf(`transitions{dir="up"} = %d, want 1`, got)
	}
}

// TestRouterTracedFanout threads a ReqTrace through the batch and dist
// paths: the batch trace carries split → shard<i> → merge hops with the
// fan-out noted, both traces pick up worker resolution-path bits, and
// the traced answers stay byte-identical to the untraced ones.
func TestRouterTracedFanout(t *testing.T) {
	_, r := startFleet(t, 2, Options{HealthInterval: -1})
	ref := refOracle(t)

	qs := testQueries(64)
	tr := obs.NewReqTrace(0)
	got, err := r.AnswerBatchTrace(qs, tr)
	if err != nil {
		t.Fatalf("AnswerBatchTrace: %v", err)
	}
	want := ref.AnswerBatch(qs)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("traced answer %d: %+v, want %+v", i, got[i], want[i])
		}
	}
	hops := tr.Hops()
	if len(hops) < 3 || hops[0].Name != "split" || hops[len(hops)-1].Name != "merge" {
		t.Fatalf("batch hops = %+v, want split … merge", hops)
	}
	if !strings.Contains(hops[0].Note, "n=64") || !strings.Contains(hops[0].Note, "workers=2") {
		t.Errorf("split note = %q", hops[0].Note)
	}
	shardHops := 0
	for _, h := range hops[1 : len(hops)-1] {
		if strings.HasPrefix(h.Name, "shard") {
			shardHops++
			if !strings.Contains(h.Note, "chunk=") || !strings.Contains(h.Note, "try=0") {
				t.Errorf("shard hop note = %q", h.Note)
			}
		}
	}
	if shardHops != 2 {
		t.Errorf("shard hops = %d, want one per chunk (2)", shardHops)
	}
	if tr.Path() == 0 {
		t.Error("batch trace carries no resolution-path bits")
	}

	tr2 := obs.NewReqTrace(0)
	if _, err := r.DistTrace(3, 9, tr2); err != nil {
		t.Fatalf("DistTrace: %v", err)
	}
	hops = tr2.Hops()
	if len(hops) != 1 || !strings.HasPrefix(hops[0].Name, "shard") || hops[0].Note != "q=1" {
		t.Fatalf("dist hops = %+v, want one shard hop (q=1)", hops)
	}
	if tr2.Path() == 0 {
		t.Error("dist trace carries no resolution-path bits")
	}
}

// TestRouterRejectsMismatchedFleet checks startup fails when workers are
// not replicas (different N).
func TestRouterRejectsMismatchedFleet(t *testing.T) {
	small, err := StartLocalFleet(1, func(i int) (*oracle.Oracle, error) {
		g := gen.MustRandomRegular(64, 32, rng.New(1))
		dc, err := core.Build(g, core.Options{
			Algorithm: core.AlgoExpander,
			Seed:      1,
			Expander:  spanner.ExpanderOptions{EnsureConnected: true},
		})
		if err != nil {
			return nil, err
		}
		return oracle.New(dc, oracle.Options{Landmarks: 4})
	}, server.Config{})
	if err != nil {
		t.Fatalf("small fleet: %v", err)
	}
	defer small.Close()
	big, err := StartLocalFleet(1, testOracle(t), server.Config{})
	if err != nil {
		t.Fatalf("big fleet: %v", err)
	}
	defer big.Close()

	r, err := New(Options{Workers: append(small.Addrs(), big.Addrs()...), HealthInterval: -1})
	if err == nil {
		r.Close()
		t.Fatal("mixed-size fleet accepted")
	}
	if !strings.Contains(err.Error(), "not replicas") {
		t.Fatalf("mixed-size fleet err = %v", err)
	}
}

// serveScript runs a text-protocol script against a Backend-fronted
// server (ServeStream).
func serveScript(t testing.TB, srv *server.Server, script string) []string {
	t.Helper()
	var sb strings.Builder
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeStream(context.Background(), strings.NewReader(script), &sb)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("ServeStream hung")
	}
	s := strings.TrimRight(sb.String(), "\n")
	if s == "" {
		return nil
	}
	return strings.Split(s, "\n")
}

func stripLatency(line string) string {
	if i := strings.LastIndex(line, " us="); i >= 0 {
		return line[:i]
	}
	return line
}

// A panicking fan-out chunk is re-raised on the caller — after every
// other chunk has finished, with the chunk goroutine's stack — instead
// of killing the process, so the server's per-request recover can
// answer it; without a panic the first error in chunk order wins.
func TestFanOutReraisesChunkPanic(t *testing.T) {
	var done atomic.Int64
	recovered := func() (v any) {
		defer func() { v = recover() }()
		fanOut(5, func(i int) error {
			if i == 2 {
				panic("chunk bug")
			}
			time.Sleep(5 * time.Millisecond)
			done.Add(1)
			return nil
		})
		return nil
	}()
	p, ok := recovered.(*graph.WorkerPanic)
	if !ok {
		t.Fatalf("recovered %T %v, want *graph.WorkerPanic", recovered, recovered)
	}
	if got := done.Load(); got != 4 {
		t.Fatalf("panic surfaced after %d of 4 healthy chunks finished", got)
	}
	if msg := p.Error(); !strings.Contains(msg, "chunk bug") || !strings.Contains(msg, "TestFanOutReraisesChunkPanic") {
		t.Fatalf("re-raised panic lost the value or the chunk's stack:\n%s", msg)
	}

	errA, errB := errors.New("a"), errors.New("b")
	err := fanOut(3, func(i int) error {
		if i == 0 {
			time.Sleep(5 * time.Millisecond)
			return errA
		}
		if i == 2 {
			return errB
		}
		return nil
	})
	if err != errA {
		t.Fatalf("fanOut returned %v, want the first chunk's error in index order", err)
	}
}
