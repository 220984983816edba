package main

import (
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/rng"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/spanner"
	"repro/internal/wire"
)

// The oracle backends are pinned per workload rather than "auto": the
// tuner chooses by timing, which on a noisy host would make the backend
// under test vary from run to run.
var (
	pointOracle  = oracle.Options{Backend: oracle.BackendExactCached}
	fanoutOracle = oracle.Options{Backend: oracle.BackendLandmarkBiBFS, Workers: 1}
)

func churnOptions(seed uint64) oracle.DynamicOptions {
	return oracle.DynamicOptions{
		Spanner: spanner.IncrementalOptions{Seed: seed},
		Oracle:  oracle.Options{Backend: oracle.BackendExactCached},
	}
}

// Seed salts keep the warm-up, untraced, traced and probe streams apart.
const (
	saltWarm   = 0x3a11
	saltTraced = 0x7ace
	saltProbe  = 0x9b0e
)

// The sizes of each serving workload. setups is the number of set-up
// repetitions behind setup_s, rebuilds the number of timed rebuilds
// behind the static workloads' update latency, conns the number of load
// connections.
type pointParams struct{ n, d, setups, rebuilds, conns int }

type fanoutParams struct {
	n, d, batch, setups, rebuilds int
	zipf                          float64
}

type churnParams struct {
	n, d, setups int
	rate         float64 // applied updates per second
}

var (
	// point uses one connection: with two, one connection's user-space
	// work overlaps the other's kernel loopback work whenever the host's
	// second CPU is free, and across ten runs throughput moved by 23% with
	// that CPU while latency moved by 6%.
	pointDefault  = pointParams{n: 1024, d: 128, setups: 15, rebuilds: 100, conns: 1}
	fanoutDefault = fanoutParams{n: 2048, d: 192, batch: 256, zipf: 0.9, setups: 9, rebuilds: 60}
	churnDefault  = churnParams{n: 512, d: 96, setups: 31, rate: 50}
)

// buildStatic generates the workload graph, builds its Theorem 2 spanner,
// and hands both to serve, which builds and starts the serving tier.
func buildStatic(n, d int, seed uint64, serve func(sys *system) error) (*system, error) {
	sys := &system{}
	t0 := time.Now()
	g, err := gen.RandomRegular(n, d, rng.New(seed))
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	dc, err := core.Build(g, core.Options{Algorithm: core.AlgoExpander, Seed: seed})
	if err != nil {
		return nil, err
	}
	sys.g, sys.h, sys.dc = g, dc.Graph(), dc
	sys.gen, sys.span = t1.Sub(t0), time.Since(t1)
	if err := serve(sys); err != nil {
		sys.close()
		return nil, err
	}
	return sys, nil
}

func buildPoint(p pointParams, seed uint64) (*system, error) {
	return buildStatic(p.n, p.d, seed, func(sys *system) error {
		t0 := time.Now()
		o, err := oracle.New(sys.dc, pointOracle)
		if err != nil {
			return err
		}
		sys.back = time.Since(t0)
		sys.oracles = []*oracle.Oracle{o}
		addr, stop, err := serveTCP(server.New(o, server.Config{}))
		if err != nil {
			return err
		}
		sys.addr, sys.stops = addr, append(sys.stops, stop)
		return nil
	})
}

// buildFanout starts a 2-worker fleet, a router over it, and a front-door
// server over the router, the shape dcrouter serves.
func buildFanout(p fanoutParams, seed uint64) (*system, error) {
	return buildStatic(p.n, p.d, seed, func(sys *system) error {
		fleet, err := router.StartLocalFleet(2, func(int) (*oracle.Oracle, error) {
			t0 := time.Now()
			o, err := oracle.New(sys.dc, fanoutOracle)
			sys.back += time.Since(t0)
			if err == nil {
				sys.oracles = append(sys.oracles, o)
			}
			return o, err
		}, server.Config{})
		if err != nil {
			return err
		}
		sys.stops = append(sys.stops, fleet.Close)
		rt, err := router.New(router.Options{Workers: fleet.Addrs()})
		if err != nil {
			return err
		}
		sys.stops = append(sys.stops, func() { rt.Close() })
		addr, stop, err := serveTCP(server.NewBackend(rt, server.Config{}))
		if err != nil {
			return err
		}
		sys.addr, sys.stops = addr, append(sys.stops, stop)
		return nil
	})
}

func buildChurn(p churnParams, seed uint64) (*system, error) {
	sys := &system{}
	t0 := time.Now()
	g, err := gen.RandomRegular(p.n, p.d, rng.New(seed))
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	dyn, err := oracle.NewDynamic(g, churnOptions(seed))
	if err != nil {
		return nil, err
	}
	// NewDynamic builds spanner and backend in one call; the traced run
	// times the two separately.
	sys.g, sys.oracles = g, []*oracle.Oracle{dyn.Oracle()}
	sys.gen, sys.span = t1.Sub(t0), time.Since(t1)
	addr, stop, err := serveTCP(server.NewBackend(server.DynamicBackend{Dynamic: dyn}, server.Config{}))
	if err != nil {
		return nil, err
	}
	sys.addr, sys.stops = addr, []func(){stop}
	return sys, nil
}

// servingMetrics assembles a serving workload's end-to-end metrics, its
// times at the reference speed of the gauge taken beside them (see
// speed.go). The update figures are the churn updater's when ul is set,
// and otherwise the static rebuild times of rebuildReps, which is what
// taking a changed graph costs a static server.
func servingMetrics(st *setupStats, ls *loadStats, ul *updateLoad, rebuild []float64, gauge *speedGauge, heap float64) map[string]metric {
	st.gauge.note("set-up")
	gauge.note("window")
	w := gauge.scale()
	m := map[string]metric{
		"setup_s":         {median(st.total) * st.gauge.scale(), "s"},
		"queries_per_s":   {ls.queriesPerSecond() / w, "1/s"},
		"request_mean_us": {ls.lat.trimmedMean(keepShare) * w, "us"},
		"request_p90_us":  {ls.lat.quantile(0.9) * w, "us"},
		"update_mean_us":  {mean(rebuild) * w, "us"},
		"update_p90_us":   {quantile(rebuild, 0.9) * w, "us"},
		"heap_mib":        {heap, "MiB"},
	}
	if ul != nil {
		m["update_mean_us"] = metric{ul.lat.trimmedMean(1) * w, "us"}
		m["update_p90_us"] = metric{ul.lat.quantile(0.9) * w, "us"}
	}
	return m
}

func runPoint(cfg runConfig) (tally, map[string]metric, error) {
	return runPointWith(cfg, pointDefault, nil)
}

// runPointWith runs point with sizes p; corrupt, when set, edits the
// expected answers first (the test of the answer check uses it).
func runPointWith(cfg runConfig, p pointParams, corrupt func(*apsp)) (tally, map[string]metric, error) {
	sys, st, err := setupReps(p.setups, func() (*system, error) { return buildPoint(p, cfg.seed) })
	if err != nil {
		return tally{}, nil, err
	}
	defer sys.close()
	cs, err := dialAll(sys.addr, p.conns)
	if err != nil {
		return tally{}, nil, err
	}
	defer closeAll(cs)
	warmUp(cs, cfg.seed^saltWarm, 5000, pointRequest(p.n, nil))
	heap := heapMiB()
	exp, err := newAPSP(sys.h)
	if err != nil {
		return tally{}, nil, err
	}
	if corrupt != nil {
		corrupt(exp)
	}
	fn := pointRequest(p.n, exp)
	if !cfg.trace {
		ls, rebuild, gauge, err := staticWindow(cfg, cs, fn, sys.g, pointOracle, p.rebuilds, 1)
		if err != nil {
			return ls.t, nil, err
		}
		return ls.t, servingMetrics(&st, &ls, nil, rebuild, &gauge, heap), nil
	}
	return traceStatic(cfg, "point", sys, cs, st, fn, pointOracle)
}

func runFanout(cfg runConfig) (tally, map[string]metric, error) {
	return runFanoutWith(cfg, fanoutDefault)
}

func runFanoutWith(cfg runConfig, p fanoutParams) (tally, map[string]metric, error) {
	sys, st, err := setupReps(p.setups, func() (*system, error) { return buildFanout(p, cfg.seed) })
	if err != nil {
		return tally{}, nil, err
	}
	defer sys.close()
	cs, err := dialAll(sys.addr, 2)
	if err != nil {
		return tally{}, nil, err
	}
	defer closeAll(cs)
	zp := newZipfPairs(p.n, p.zipf, cfg.seed)
	// Fill the LRUs until the hit ratio of a slice of 200 batches per
	// connection moves by less than a point from the slice before.
	prev := -1.0
	for i := uint64(0); i < 16; i++ {
		h0, m0 := cacheCounts(sys.oracles)
		warmUp(cs, cfg.seed^saltWarm^(i<<20), 200, batchRequest(zp, p.batch, nil))
		h1, m1 := cacheCounts(sys.oracles)
		ratio := float64(h1-h0) / math.Max(1, float64(h1-h0+m1-m0))
		if math.Abs(ratio-prev) < 0.01 {
			break
		}
		prev = ratio
	}
	heap := heapMiB()
	exp, err := newAPSP(sys.h)
	if err != nil {
		return tally{}, nil, err
	}
	// Routed answers must equal a single-process oracle's, field by field.
	var t tally
	single, err := oracle.New(sys.dc, fanoutOracle)
	if err != nil {
		return t, nil, err
	}
	r := rng.New(cfg.seed ^ saltProbe)
	for i := 0; i < 16; i++ {
		qs := make([]oracle.Query, p.batch)
		zp.batch(r, qs)
		got, err := cs[0].Batch(qs)
		want := single.AnswerBatch(qs)
		same := err == nil && len(got) == len(want)
		for j := 0; same && j < len(got); j++ {
			same = got[j] == want[j]
		}
		t.add(same, "routed batch %d differs from the single-process oracle (err %v)", i, err)
	}
	fn := batchRequest(zp, p.batch, exp)
	if !cfg.trace {
		ls, rebuild, gauge, err := staticWindow(cfg, cs, fn, sys.g, fanoutOracle, p.rebuilds, len(sys.oracles))
		t.merge(ls.t)
		if err != nil {
			return t, nil, err
		}
		return t, servingMetrics(&st, &ls, nil, rebuild, &gauge, heap), nil
	}
	tt, m, err := traceStatic(cfg, "fanout", sys, cs, st, fn, fanoutOracle)
	t.merge(tt)
	return t, m, err
}

// staticWindow runs a static workload's timed window in k stretches, each
// followed, while the load pauses, by one timed rebuild (see rebuildReps)
// and a sample of the speed gauge. The rebuilds are spread over the same
// time as the serving figures: timed back to back they all landed in one
// phase of the host's speed (see speed.go), and their median moved by a
// third between runs.
func staticWindow(cfg runConfig, cs []*wire.Client, fn requestFn, g *graph.Graph, opts oracle.Options, k, backends int) (loadStats, []float64, speedGauge, error) {
	var (
		ls      loadStats
		rebuild []float64
		gauge   speedGauge
	)
	for i := 0; i < k; i++ {
		part := closedLoop(cs, cfg.seed^uint64(i)<<32, cfg.window/time.Duration(k), 0, nil, fn)
		ls.merge(&part)
		ls.conns = part.conns
		r, err := rebuildReps(1, g, cfg.seed, opts, backends)
		if err != nil {
			return ls, nil, gauge, err
		}
		rebuild = append(rebuild, r...)
		takeGauge(&gauge)
		runtime.GC()
	}
	return ls, rebuild, gauge, nil
}

// cacheCounts sums the LRU hits and misses of the serving oracles.
func cacheCounts(os []*oracle.Oracle) (hits, misses int64) {
	for _, o := range os {
		c := o.BackendStats().Counters
		hits += c["cache_hits"]
		misses += c["cache_misses"]
	}
	return hits, misses
}

func runChurn(cfg runConfig) (tally, map[string]metric, error) {
	return runChurnWith(cfg, churnDefault)
}

// churnQuery sends one dist frame with uniform endpoints. The graph moves
// under it, so the answer is checked for shape only here; runChurnWith
// checks answers against a from-scratch oracle once the stream stops.
func churnQuery(n int) requestFn {
	return func(c *wire.Client, r *rng.RNG, sh *spanShard, parent int32, req uint64, t *tally) (time.Duration, int, error) {
		u, v := int32(r.Intn(n)), int32(r.Intn(n))
		t0 := time.Now()
		s := sh.begin("wire.dist", parent, req)
		a, err := c.Dist(u, v)
		sh.end(s)
		lat := time.Since(t0)
		if err != nil {
			t.add(false, "dist %d %d: %v", u, v, err)
			return lat, 0, err
		}
		t.add(a.U == u && a.V == v && a.Exact && a.Dist == a.Bound && (a.Dist > 0 || (u == v && a.Dist == 0)),
			"dist %d %d answered %+v", u, v, a)
		return lat, 1, nil
	}
}

func runChurnWith(cfg runConfig, p churnParams) (tally, map[string]metric, error) {
	sys, st, err := setupReps(p.setups, func() (*system, error) { return buildChurn(p, cfg.seed) })
	if err != nil {
		return tally{}, nil, err
	}
	defer sys.close()
	cs, err := dialAll(sys.addr, 2)
	if err != nil {
		return tally{}, nil, err
	}
	defer closeAll(cs)
	qc, uc := cs[0], cs[1]
	warmUp([]*wire.Client{qc}, cfg.seed^saltWarm, 5000, churnQuery(p.n))
	heap := heapMiB()

	stream := newEdgeStream(sys.g, cfg.seed)
	window := func(seed uint64, d time.Duration, rec *recorder) (loadStats, updateLoad) {
		var ul updateLoad
		var wg sync.WaitGroup
		start := time.Now()
		wg.Add(1)
		go func() {
			defer wg.Done()
			ul = openLoopUpdates(uc, stream, p.rate, start, d, rec.shard())
		}()
		ls := closedLoop([]*wire.Client{qc}, seed, d, 0, rec, churnQuery(p.n))
		wg.Wait()
		return ls, ul
	}
	var t tally
	if !cfg.trace {
		ls, ul := window(cfg.seed, cfg.window, nil)
		t.merge(ls.t)
		t.merge(ul.t)
		if _, err := checkChurn(qc, sys, stream, cfg.seed, len(ul.sent), &t); err != nil {
			return t, nil, err
		}
		return t, servingMetrics(&st, &ls, &ul, nil, &ul.gauge, heap), nil
	}

	m := map[string]metric{}
	before, ms0 := pathCounts(sys.oracles), readMem()
	base, baseUp := window(cfg.seed, cfg.window/2, nil)
	after, ms1 := pathCounts(sys.oracles), readMem()
	ref, refUp := window(cfg.seed^saltTraced, traceSegment(cfg.window), nil)
	rec := newRecorder()
	traced, tracedUp := window(cfg.seed^saltTraced, traceSegment(cfg.window), rec)
	var sent []update
	var lateness []float64
	for _, ul := range []updateLoad{baseUp, refUp, tracedUp} {
		t.merge(ul.t)
		sent = append(sent, ul.sent...)
		lateness = append(lateness, ul.late...)
	}
	for _, ls := range []loadStats{base, ref, traced} {
		t.merge(ls.t)
	}
	served, err := checkChurn(qc, sys, stream, cfg.seed, len(sent), &t)
	if err != nil {
		return t, nil, err
	}
	m["gen.graph_ms"] = metric{median(st.gen), "ms"}
	s, err := timeBuilds(3, func() (time.Duration, time.Duration, error) {
		t0 := time.Now()
		inc := spanner.NewIncremental(sys.g, churnOptions(cfg.seed).Spanner)
		t1 := time.Now()
		sp := inc.Spanner()
		_, err := oracle.NewFromGraphs(sp.Base, sp.H, spanner.IncrementalAlpha, churnOptions(cfg.seed).Oracle)
		return t1.Sub(t0), time.Since(t1), err
	})
	if err != nil {
		return t, nil, err
	}
	m["spanner.build_ms"], m["oracle.build_ms"] = s[0], s[1]
	runtimeMetrics(m, ms0, ms1, base.queries)
	counterMetrics(m, before, after)
	clientMetrics(m, &base.lat, lateness)
	m["trace.overhead_ratio"] = metric{traced.lat.quantile(0.5) / ref.lat.quantile(0.5), "ratio"}

	sp := spanner.NewIncremental(sys.g, churnOptions(cfg.seed).Spanner).Spanner()
	newOracle := func(sampleEvery int) (*oracle.Oracle, error) {
		opts := churnOptions(cfg.seed).Oracle
		opts.SampleEvery = sampleEvery
		return oracle.NewFromGraphs(sp.Base, sp.H, spanner.IncrementalAlpha, opts)
	}
	if err := ladders(m, rec, &t, cfg.seed, sys.g, sp.H, newOracle, churnOptions(cfg.seed).Oracle, sent, &served); err != nil {
		return t, nil, err
	}
	if err := pipelineLadder(m, rec, &t, cfg.seed); err != nil {
		return t, nil, err
	}
	return t, m, finishTrace(m, rec, cfg, "churn")
}

// checkChurn checks the engine after the update stream stopped: the
// server's snapshot must verify against a from-scratch spanner, its edge
// set must be the one the stream leads to, and a probe set answered over
// the wire must equal a from-scratch oracle on that final graph.
func checkChurn(c *wire.Client, sys *system, st *edgeStream, seed uint64, applied int, t *tally) (oracle.SnapshotInfo, error) {
	info, err := c.Snap(true)
	if err != nil {
		t.add(false, "snapshot: %v", err)
		return info, nil
	}
	t.add(info.Verified && info.Consistent, "snapshot: maintained spanner differs from a from-scratch rebuild (seq %d)", info.Seq)
	want := sortedEdges(st.edges)
	t.add(info.M == len(want) && info.GraphHash == edgeHash(want) && info.Seq == uint64(applied),
		"snapshot m=%d seq=%d hash=%x, want m=%d seq=%d hash=%x", info.M, info.Seq, info.GraphHash, len(want), applied, edgeHash(want))
	fresh, err := oracle.NewDynamic(graph.FromEdges(sys.g.N(), want), churnOptions(seed))
	if err != nil {
		return info, err
	}
	r := rng.New(seed ^ saltProbe)
	probe := make([]oracle.Query, 1024)
	for i := range probe {
		probe[i] = oracle.Query{U: int32(r.Intn(sys.g.N())), V: int32(r.Intn(sys.g.N()))}
	}
	got, err := c.Batch(probe)
	if err != nil || len(got) != len(probe) {
		t.add(false, "probe batch: %v", err)
		return info, nil
	}
	exp := fresh.AnswerBatch(probe)
	for i, q := range probe {
		t.add(got[i].U == q.U && got[i].V == q.V && got[i].Dist == exp[i].Dist && got[i].Exact == exp[i].Exact,
			"probe %d %d answered %+v, from scratch %+v", q.U, q.V, got[i], exp[i])
	}
	return info, nil
}

// traceSegment is the length of the two adjacent segments, one untraced
// and one traced, that the tracing overhead compares.
func traceSegment(window time.Duration) time.Duration {
	return min(2*time.Second, window/4)
}

// traceStatic is the traced run of a static serving workload: an untraced
// half window for the runtime, counter and client figures, an untraced and
// a traced segment of the same requests for the tracing overhead, then the
// ladders.
func traceStatic(cfg runConfig, name string, sys *system, cs []*wire.Client, st setupStats, fn requestFn, opts oracle.Options) (tally, map[string]metric, error) {
	m := map[string]metric{}
	before, ms0 := pathCounts(sys.oracles), readMem()
	base := closedLoop(cs, cfg.seed, cfg.window/2, 0, nil, fn)
	after, ms1 := pathCounts(sys.oracles), readMem()
	ref := closedLoop(cs, cfg.seed^saltTraced, traceSegment(cfg.window), 0, nil, fn)
	rec := newRecorder()
	traced := closedLoop(cs, cfg.seed^saltTraced, traceSegment(cfg.window), 0, rec, fn)
	t := base.t
	t.merge(ref.t)
	t.merge(traced.t)

	m["gen.graph_ms"] = metric{median(st.gen), "ms"}
	m["spanner.build_ms"] = metric{median(st.span), "ms"}
	m["oracle.build_ms"] = metric{median(st.back) / float64(len(sys.oracles)), "ms"}
	runtimeMetrics(m, ms0, ms1, base.queries)
	counterMetrics(m, before, after)
	clientMetrics(m, &base.lat, nil)
	m["trace.overhead_ratio"] = metric{traced.lat.quantile(0.5) / ref.lat.quantile(0.5), "ratio"}

	if err := ladders(m, rec, &t, cfg.seed, sys.g, sys.h, staticOracles(sys.dc, opts), opts, nil, nil); err != nil {
		return t, nil, err
	}
	if err := pipelineLadder(m, rec, &t, cfg.seed); err != nil {
		return t, nil, err
	}
	return t, m, finishTrace(m, rec, cfg, name)
}

// staticOracles returns a constructor of oracles over dc with opts and
// the given stretch-sampling period.
func staticOracles(dc *core.DCSpanner, opts oracle.Options) func(int) (*oracle.Oracle, error) {
	return func(sampleEvery int) (*oracle.Oracle, error) {
		o := opts
		o.SampleEvery = sampleEvery
		return oracle.New(dc, o)
	}
}

// timeBuilds runs build k times and returns the median of each of its
// two timed phases, in ms.
func timeBuilds(k int, build func() (time.Duration, time.Duration, error)) ([2]metric, error) {
	var a, b []float64
	for i := 0; i < k; i++ {
		x, y, err := build()
		if err != nil {
			return [2]metric{}, err
		}
		a, b = append(a, ms(x)), append(b, ms(y))
	}
	return [2]metric{{median(a), "ms"}, {median(b), "ms"}}, nil
}

// timeStaticBuild builds g's Theorem 2 spanner and an oracle over it
// three times and returns the last spanner with the median build times.
func timeStaticBuild(g *graph.Graph, seed uint64, opts oracle.Options) (*core.DCSpanner, metric, metric, error) {
	var dc *core.DCSpanner
	s, err := timeBuilds(3, func() (time.Duration, time.Duration, error) {
		t0 := time.Now()
		var err error
		dc, err = core.Build(g, core.Options{Algorithm: core.AlgoExpander, Seed: seed})
		if err != nil {
			return 0, 0, err
		}
		t1 := time.Now()
		_, err = oracle.New(dc, opts)
		return t1.Sub(t0), time.Since(t1), err
	})
	return dc, s[0], s[1], err
}

// memSample is the part of runtime.MemStats the runtime metrics use.
type memSample struct {
	totalAlloc, pauseNs uint64
	numGC               uint32
}

func readMem() memSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSample{totalAlloc: ms.TotalAlloc, pauseNs: ms.PauseTotalNs, numGC: ms.NumGC}
}

// runtimeMetrics reports the process's allocation and GC work between two
// samples, per answered query. Client and server share the process, so
// this is the whole round trip's allocation.
func runtimeMetrics(m map[string]metric, a, b memSample, queries int64) {
	m["runtime.alloc_bytes_per_query"] = metric{float64(b.totalAlloc-a.totalAlloc) / math.Max(1, float64(queries)), "B"}
	m["runtime.gc_cycles"] = metric{float64(b.numGC - a.numGC), "count"}
	m["runtime.gc_pause_ms"] = metric{float64(b.pauseNs-a.pauseNs) / 1e6, "ms"}
}

// clientMetrics reports the load generator's diagnostics: the deep tail
// of the untraced half, its sample count, and how late the open-loop
// updater ran at p90 (0 where no open-loop sender runs).
func clientMetrics(m map[string]metric, lat *hist, late []float64) {
	m["client.requests"] = metric{float64(lat.n), "count"}
	m["client.p99_us"] = metric{lat.quantile(0.99), "us"}
	m["client.p999_us"] = metric{lat.quantile(0.999), "us"}
	m["client.update_lateness_ms"] = metric{quantile(late, 0.9), "ms"}
}

// pathCounts sums the backend counters of the serving oracles.
func pathCounts(os []*oracle.Oracle) map[string]int64 {
	out := map[string]int64{}
	for _, o := range os {
		for k, v := range o.BackendStats().Counters {
			out[k] += v
		}
	}
	return out
}

// counterMetrics reports the serving backends' counter deltas between two
// samples: the LRU hit ratio with its base counts, and the share of
// resolutions that ran a bidirectional BFS.
func counterMetrics(m map[string]metric, before, after map[string]int64) {
	d := func(k string) float64 { return float64(after[k] - before[k]) }
	hits, misses := d("cache_hits"), d("cache_misses")
	var resolved float64
	for _, k := range []string{"path_cache", "path_landmark", "path_bibfs", "path_bulk", "path_exact", "path_bunch", "path_hub"} {
		resolved += d(k)
	}
	m["oracle.cache_hits"] = metric{hits, "count"}
	m["oracle.cache_misses"] = metric{misses, "count"}
	m["oracle.cache_hit_ratio"] = metric{hits / math.Max(1, hits+misses), "ratio"}
	m["oracle.resolutions"] = metric{resolved, "count"}
	m["oracle.bibfs_share"] = metric{d("path_bibfs") / math.Max(1, resolved), "ratio"}
}
