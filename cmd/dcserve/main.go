// Command dcserve builds a DC-spanner of a generated or loaded graph and
// serves point-to-point distance/route queries against it through the
// internal/oracle engine — the repository's "many queries against one
// precomputed spanner" serving path. The connection lifecycle and the
// line protocol live in internal/server; this command is flag parsing and
// wiring.
//
// Usage:
//
//	dcserve -demo                      # 512-node Δ=96 expander, 10k mixed queries, latency report
//	dcserve -listen :7070              # TCP line protocol; SIGINT/SIGTERM drains gracefully
//	dcserve < queries.txt              # same protocol on stdin/stdout
//	dcserve -listen :7070 -debug-addr 127.0.0.1:6060
//	                                   # adds an HTTP sidecar: /metrics (Prometheus
//	                                   # text), /healthz, /debug/pprof/*
//
// Protocol (one request per line; see internal/server for the full spec):
//
//	dist <u> <v>   ->  dist <u> <v> = <d> exact=<t|f> bound=<b> us=<latency>
//	route <u> <v>  ->  route <u> <v> = <d> path=<v0>-<v1>-...-<vk>
//	batch <n>      ->  n dist lines in, n index-aligned answers out
//	stats          ->  stats <oracle report> | server <counter report>
//	quit           ->  closes the connection (stdin mode: exits)
//
// With -dynamic the server maintains an incremental cluster spanner over
// a live graph and additionally answers (see internal/server):
//
//	update <u> <v> <add|del>  ->  update ... = applied=<t|f> m=<m> hm=<hm> seq=<s>
//	snapshot [verify]         ->  snapshot n=... m=... hm=... seq=... ghash=... hhash=... verified=<t|f> consistent=<t|f>
//
// Errors answer "err <message>" and keep the connection open.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/spanner"
)

func main() {
	cfg := cliutil.RegisterGraphFlags(flag.CommandLine, "regular", 512, 96, 1)
	algo := flag.String("algo", "expander", "spanner: expander|regular|baswana-sen|greedy|sparsify-uniform|bounded-degree")
	dynamic := flag.Bool("dynamic", false,
		"serve a live graph: maintain an incremental cluster spanner and accept update/snapshot verbs (ignores -algo)")
	k := flag.Int("k", 2, "Baswana-Sen parameter (stretch 2k-1)")
	alpha := flag.Int("alpha", 3, "greedy spanner stretch")
	backend := flag.String("oracle-backend", "auto",
		"distance-resolution backend: landmark-bibfs|exact-cached|sparse-hub|auto (benchmark at startup and pick)")
	landmarks := flag.Int("landmarks", 16, "landmark BFS trees precomputed on the spanner (landmark-bibfs backend)")
	sparseHubs := flag.Int("sparse-hubs", 0, "hub count for the sparse-hub backend (0 = ceil(sqrt(n)))")
	memBudget := flag.Int64("oracle-mem", 0, "auto-tuner memory budget in bytes (0 = 128 MiB, negative = unlimited)")
	cacheSize := flag.Int("cache", 1<<16, "LRU result-cache entries (negative disables)")
	workers := flag.Int("workers", 0, "batch worker pool size (0 = GOMAXPROCS)")
	sample := flag.Int("sample", 64, "verify every k-th query against exact BFS on G for realized stretch (negative disables)")
	listen := flag.String("listen", "", "serve the line protocol on this TCP address instead of stdin")
	demo := flag.Bool("demo", false, "answer -queries mixed random queries, print the latency report, and exit")
	queries := flag.Int("queries", 10000, "demo query count")
	maxConns := flag.Int("maxconns", server.DefaultMaxConns, "concurrent connection limit (excess answered 'err server busy')")
	maxLine := flag.Int("maxline", server.DefaultMaxLineBytes, "request line length limit in bytes")
	maxBatch := flag.Int("maxbatch", server.DefaultMaxBatch, "largest accepted 'batch <n>'")
	idle := flag.Duration("idle", server.DefaultIdleTimeout, "per-connection idle read deadline (negative disables)")
	writeTO := flag.Duration("writetimeout", server.DefaultWriteTimeout, "per-response write deadline (negative disables)")
	drain := flag.Duration("drain", server.DefaultDrainTimeout, "graceful-shutdown budget before force-closing connections")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /healthz, /debug/pprof, and /debug/requests on this HTTP address (e.g. 127.0.0.1:0)")
	traceSample := flag.Int("trace-sample", 0, "server-side trace every Nth binary request (0 = only client-requested traces)")
	logLevel := flag.String("log-level", "info", "structured log threshold: debug|info|warn|error")
	prof := cliutil.RegisterProfileFlags(flag.CommandLine)
	flag.Parse()
	defer prof.MustStart()()

	level, err := obs.ParseLogLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	logger := obs.NewLogger(os.Stderr, level)
	logger.Info("dcserve starting", "pid", os.Getpid())

	// One process-wide registry: the oracle, the server, and the Go
	// runtime all register here, so the wire "stats" line, the -demo
	// report, and /metrics render from the same counters. The flight
	// recorder rides along: sampled request traces land there and are
	// served at /debug/requests.
	reg := obs.NewRegistry()
	obs.RegisterProcessMetrics(reg)
	flight := obs.NewFlightRecorder(0, 0, 0)
	flight.AttachMetrics(reg)
	if *debugAddr != "" {
		ds, err := obs.ServeDebug(*debugAddr, reg, flight)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer ds.Close()
		fmt.Printf("debug listening on %s\n", ds.Addr())
	}

	g := cfg.MustBuild()
	fmt.Printf("G: n=%d m=%d maxDeg=%d connected=%v\n", g.N(), g.M(), g.MaxDegree(), g.Connected())

	oracleOpts := oracle.Options{
		Backend:      *backend,
		Landmarks:    *landmarks,
		SparseHubs:   *sparseHubs,
		MemoryBudget: *memBudget,
		CacheSize:    *cacheSize,
		Workers:      *workers,
		SampleEvery:  *sample,
		Registry:     reg,
	}

	// mount wraps whichever engine serves this process: a static Oracle,
	// or the dynamic live-graph engine that additionally answers the
	// update/snapshot verbs.
	var (
		o     *oracle.Oracle
		mount func(server.Config) *server.Server
	)
	t0 := time.Now()
	if *dynamic {
		d, err := oracle.NewDynamic(g, oracle.DynamicOptions{
			Spanner: spanner.IncrementalOptions{Seed: cfg.Seed},
			Oracle:  oracleOpts,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		o = d.Oracle()
		hm := d.Snapshot(false).HM
		fmt.Printf("H (incremental-cluster3, dynamic): m=%d (%.1f%% of G), certified alpha=%d\n",
			hm, 100*float64(hm)/float64(g.M()), spanner.IncrementalAlpha)
		mount = func(c server.Config) *server.Server { return server.NewBackend(server.DynamicBackend{Dynamic: d}, c) }
	} else {
		dc, err := core.Build(g, core.Options{
			Algorithm: core.Algorithm(*algo),
			Seed:      cfg.Seed,
			K:         *k,
			Alpha:     *alpha,
			Expander:  spanner.ExpanderOptions{EnsureConnected: true},
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		h := dc.Graph()
		fmt.Printf("H (%s): m=%d (%.1f%% of G), certified alpha=%d\n",
			*algo, h.M(), 100*float64(h.M())/float64(g.M()), dc.CertifiedAlpha())
		o, err = oracle.New(dc, oracleOpts)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		mount = func(c server.Config) *server.Server { return server.New(o, c) }
	}
	if rep := o.TunerReport(); rep != nil {
		fmt.Printf("oracle tuner:\n%s", rep)
	}
	bs := o.BackendStats()
	fmt.Printf("oracle: backend=%s (stretch-bound=%d, %.1f KiB, %d landmarks) ready in %v\n",
		bs.Name, bs.StretchBound, float64(bs.MemoryBytes)/1024, len(o.Landmarks()),
		time.Since(t0).Round(time.Microsecond))

	o.MarkServingStart()
	srvCfg := server.Config{
		MaxConns:     *maxConns,
		MaxLineBytes: *maxLine,
		MaxBatch:     *maxBatch,
		IdleTimeout:  *idle,
		WriteTimeout: *writeTO,
		DrainTimeout: *drain,
		Log:          logger,
		Registry:     reg,
		Flight:       flight,
		TraceSample:  *traceSample,
	}
	switch {
	case *demo:
		runDemo(o, g.N(), *queries, cfg.Seed)
	case *listen != "":
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		l, err := net.Listen("tcp", *listen)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("serving on %s (maxconns=%d maxline=%d idle=%v dynamic=%v)\n", l.Addr(), *maxConns, *maxLine, *idle, *dynamic)
		if err := mount(srvCfg).Serve(ctx, l); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println("drained, exiting")
	default:
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		mount(srvCfg).ServeStream(ctx, os.Stdin, os.Stdout)
	}
}

// runDemo answers a mixed random workload — 90% dist (batched), 10%
// route — drawn from a pair pool a quarter the workload size, so the
// cache sees realistic re-hits, then prints the serving report.
func runDemo(o *oracle.Oracle, n, total int, seed uint64) {
	if total < 1 {
		total = 1
	}
	r := rng.New(seed ^ 0xdeadbeefcafef00d)
	poolSize := total / 4
	if poolSize < 1 {
		poolSize = 1
	}
	pool := make([]oracle.Query, poolSize)
	for i := range pool {
		pool[i] = oracle.Query{U: int32(r.Intn(n)), V: int32(r.Intn(n))}
	}
	nRoutes := total / 10
	nDist := total - nRoutes
	qs := make([]oracle.Query, nDist)
	for i := range qs {
		qs[i] = pool[r.Intn(poolSize)]
	}

	start := time.Now()
	_ = o.AnswerBatch(qs)
	for i := 0; i < nRoutes; i++ {
		q := pool[r.Intn(poolSize)]
		if _, _, err := o.Route(q.U, q.V); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	elapsed := time.Since(start)

	s := o.Stats()
	fmt.Printf("demo: %d queries (%d dist batched, %d route) in %v\n",
		total, nDist, nRoutes, elapsed.Round(time.Millisecond))
	fmt.Printf("latency: p50=%s p95=%s p99=%s mean=%s   route p50=%s p99=%s\n",
		usec(s.LatencyP50), usec(s.LatencyP95), usec(s.LatencyP99), usec(s.LatencyMean),
		usec(s.RouteLatencyP50), usec(s.RouteLatencyP99))
	fmt.Printf("throughput: %.0f qps   cache: hits=%d misses=%d hitRate=%.3f\n",
		float64(total)/elapsed.Seconds(), s.CacheHits, s.CacheMisses, s.HitRate)
	fmt.Printf("stretch: realized alpha=%.3f mean=%.3f over %d samples (certified %d)   maxRouteCong=%d\n",
		s.RealizedAlpha, s.MeanStretch, s.StretchSamples, s.CertifiedAlpha, s.MaxCongestion)
	if s.StretchSamples < 100 {
		fmt.Fprintf(os.Stderr, "warning: only %d realized-stretch samples (<100); lower -sample or raise -queries for a statistically meaningful check\n",
			s.StretchSamples)
	}
	if s.CertifiedAlpha > 0 && s.RealizedAlpha > float64(s.CertifiedAlpha) {
		fmt.Fprintln(os.Stderr, "realized stretch exceeds certified alpha")
		os.Exit(1)
	}
}

func usec(sec float64) string { return fmt.Sprintf("%.1fµs", sec*1e6) }
