// Command dcrouter fronts a fleet of dcserve workers: it speaks both
// serving protocols (the text line protocol and the binary wire
// protocol) on one listen address and fans the work across workers over
// pooled, pipelined binary connections. Workers are replicas — each holds
// the full oracle — so any query can go to any worker; batches split into
// contiguous chunks, one per healthy worker, and merge back in request
// order. Worker death is absorbed by retrying chunks on survivors.
//
// Two ways to get a fleet:
//
//	dcrouter -spawn 4 -listen :7070        # 4 in-process workers (one
//	                                       # graph + spanner built once,
//	                                       # one oracle replica per worker)
//	dcrouter -connect host1:7070,host2:7070 -listen :7070
//	                                       # external dcserve processes
//
// The debug sidecar (-debug-addr) exposes router_* counters, per-shard
// router_shard<i>_* counters, and healthy-worker gauges on /metrics; the
// protocol-level "stats" request renders the same numbers per shard.
// SIGINT/SIGTERM drains the front server gracefully, then closes the
// fleet connections (and, in -spawn mode, the workers).
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/spanner"
)

func main() {
	cfg := cliutil.RegisterGraphFlags(flag.CommandLine, "regular", 512, 96, 1)
	algo := flag.String("algo", "expander", "spanner: expander|regular|baswana-sen|greedy|sparsify-uniform|bounded-degree")
	k := flag.Int("k", 2, "Baswana-Sen parameter (stretch 2k-1)")
	alpha := flag.Int("alpha", 3, "greedy spanner stretch")
	backend := flag.String("oracle-backend", "auto",
		"worker distance-resolution backend: landmark-bibfs|exact-cached|sparse-hub|auto (-spawn mode; auto tunes once on worker 0, replicas reuse the pick)")
	landmarks := flag.Int("landmarks", 16, "landmark BFS trees per worker oracle (-spawn mode)")
	cacheSize := flag.Int("cache", 1<<16, "per-worker LRU result-cache entries (negative disables; -spawn mode)")
	workers := flag.Int("workers", 0, "per-worker batch pool size (0 = GOMAXPROCS; -spawn mode)")

	spawn := flag.Int("spawn", 0, "boot this many in-process worker replicas on loopback")
	connect := flag.String("connect", "", "comma-separated worker addresses (instead of -spawn)")
	listen := flag.String("listen", ":7070", "front-door listen address (both protocols)")
	connsPer := flag.Int("conns-per-worker", router.DefaultConnsPerWorker, "pooled connections per worker")
	retries := flag.Int("retries", router.DefaultRetries, "extra workers a failed chunk is tried on")
	health := flag.Duration("health", router.DefaultHealthInterval, "worker health-check interval (negative disables)")
	reqTimeout := flag.Duration("request-timeout", router.DefaultRequestTimeout, "per-request deadline towards a worker")

	maxConns := flag.Int("maxconns", server.DefaultMaxConns, "front-door concurrent connection limit")
	maxLine := flag.Int("maxline", server.DefaultMaxLineBytes, "request line length limit in bytes")
	maxBatch := flag.Int("maxbatch", server.DefaultMaxBatch, "largest accepted batch at the front door")
	idle := flag.Duration("idle", server.DefaultIdleTimeout, "per-connection idle read deadline (negative disables)")
	drain := flag.Duration("drain", server.DefaultDrainTimeout, "graceful-shutdown budget")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /healthz, /debug/pprof, /debug/requests on this HTTP address")
	traceSample := flag.Int("trace-sample", 0, "trace every Nth binary request at the front door (0 = only client-requested traces)")
	logLevel := flag.String("log-level", "info", "structured log threshold: debug|info|warn|error")
	flag.Parse()

	if (*spawn > 0) == (*connect != "") {
		fmt.Fprintln(os.Stderr, "dcrouter: exactly one of -spawn or -connect is required")
		os.Exit(2)
	}

	level, err := obs.ParseLogLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	logger := obs.NewLogger(os.Stderr, level)
	logger.Info("dcrouter starting", "pid", os.Getpid())

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

	var addrs []string
	if *spawn > 0 {
		// Build the graph and spanner once; every worker gets its own
		// oracle replica over the shared (read-only) spanner. Worker
		// oracles use private registries — metric names collide otherwise
		// — and the fleet's externally visible numbers come from the
		// router_* counters instead.
		g := cfg.MustBuild()
		fmt.Printf("G: n=%d m=%d maxDeg=%d connected=%v\n", g.N(), g.M(), g.MaxDegree(), g.Connected())
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
		fmt.Printf("H (%s): m=%d, certified alpha=%d\n", *algo, dc.Graph().M(), dc.CertifiedAlpha())
		t0 := time.Now()
		// StartLocalFleet builds worker oracles sequentially, so worker 0
		// can resolve "auto" once (running the tuner) and every replica
		// after it reuses the concrete pick instead of re-benchmarking.
		chosen := *backend
		fleet, err := router.StartLocalFleet(*spawn, func(i int) (*oracle.Oracle, error) {
			o, err := oracle.New(dc, oracle.Options{
				Backend:   chosen,
				Landmarks: *landmarks,
				CacheSize: *cacheSize,
				Workers:   *workers,
			})
			if err == nil && i == 0 {
				if rep := o.TunerReport(); rep != nil {
					fmt.Printf("oracle tuner (worker 0):\n%s", rep)
				}
				chosen = o.Backend()
				fmt.Printf("worker oracle backend: %s\n", chosen)
			}
			return o, err
		}, server.Config{
			MaxBatch: *maxBatch,
			Log:      logger,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer fleet.Close()
		addrs = fleet.Addrs()
		fmt.Printf("spawned %d workers in %v: %s\n", *spawn, time.Since(t0).Round(time.Millisecond), strings.Join(addrs, " "))
	} else {
		for _, a := range strings.Split(*connect, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
	}

	rt, err := router.New(router.Options{
		Workers:        addrs,
		ConnsPerWorker: *connsPer,
		Retries:        *retries,
		HealthInterval: *health,
		RequestTimeout: *reqTimeout,
		Registry:       reg,
		Log:            logger,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer rt.Close()
	fmt.Printf("fleet: %d workers, n=%d, worker maxbatch=%d\n", len(addrs), rt.N(), rt.MaxBatch())

	front := server.NewBackend(rt, server.Config{
		MaxConns:     *maxConns,
		MaxLineBytes: *maxLine,
		MaxBatch:     *maxBatch,
		IdleTimeout:  *idle,
		DrainTimeout: *drain,
		Log:          logger,
		Registry:     reg,
		Flight:       flight,
		TraceSample:  *traceSample,
	})

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	l, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("router serving on %s (workers=%d maxbatch=%d)\n", l.Addr(), len(addrs), *maxBatch)
	if err := front.Serve(ctx, l); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println("drained, exiting")
}
