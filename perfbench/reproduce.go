package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/routing"
)

// reproduceParams sizes the offline pipeline: Algorithm 1 on a random
// dAlg1-regular graph, Theorem 2 on a random dThm2-regular one, both on n
// vertices, and a demands-pair routing problem routed through both.
type reproduceParams struct {
	n, dAlg1, dThm2, demands, setups int
}

var reproduceDefault = reproduceParams{n: 512, dAlg1: 72, dThm2: 96, demands: 2048, setups: 31}

// pipelineInput is what one pipeline run consumes; it is generated from
// the seed at set-up and reused by every run.
type pipelineInput struct {
	g1, g2 *graph.Graph
	prob   routing.Problem
	seed   uint64
}

func genPipelineInput(p reproduceParams, seed uint64) (pipelineInput, error) {
	g1, err := gen.RandomRegular(p.n, p.dAlg1, rng.New(seed))
	if err != nil {
		return pipelineInput{}, err
	}
	g2, err := gen.RandomRegular(p.n, p.dThm2, rng.New(seed^0x7e2))
	if err != nil {
		return pipelineInput{}, err
	}
	prob := routing.RandomProblem(p.n, p.demands, rng.New(seed^0x9a7))
	return pipelineInput{g1: g1, g2: g2, prob: prob, seed: seed}, nil
}

// pipelineTimes is one run's step and phase durations. The two steps are
// timed on the process CPU clock as well, for the end-to-end metrics.
type pipelineTimes struct {
	construct, route              time.Duration
	constructCPU, routeCPU        time.Duration
	alg1, thm2, verify            time.Duration
	shortest, substitute, measure time.Duration
	alg1Phases                    map[string]time.Duration
	edges                         int
	congestionStretch             float64
	demands                       int
}

// runPipeline runs the paper's pipeline once and checks its guarantees
// into t: both spanners have no distance-stretch violation at α = 3, both
// substitute routings have distance stretch at most 3, and every
// substitute path is a walk in its spanner between its pair's endpoints.
// With a shard, each step is recorded as a span, and Algorithm 1's phase
// tree from core.Options.Trace is copied in under its span.
func runPipeline(in pipelineInput, sh *spanShard, req uint64, t *tally) (pipelineTimes, error) {
	var pt pipelineTimes
	root := sh.begin("pipeline", -1, req)
	defer sh.end(root)

	t0, cpu0 := time.Now(), processCPU()
	cs := sh.begin("construct", root, req)
	var trace *obs.Span
	if sh != nil {
		trace = obs.StartSpan("alg1")
	}
	a1 := sh.begin("spanner.alg1", cs, req)
	a1Start := sh.now()
	alg1, err := core.Build(in.g1, core.Options{Algorithm: core.AlgoRegular, Seed: in.seed, Trace: trace})
	sh.end(a1)
	pt.alg1 = time.Since(t0)
	if err != nil {
		return pt, fmt.Errorf("algorithm 1: %w", err)
	}
	if trace != nil {
		trace.End()
		pt.alg1Phases = make(map[string]time.Duration)
		copyPhases(sh, trace, a1, a1Start, req, "spanner.alg1", pt.alg1Phases)
	}
	t1 := time.Now()
	s := sh.begin("spanner.thm2", cs, req)
	thm2, err := core.Build(in.g2, core.Options{Algorithm: core.AlgoExpander, Seed: in.seed})
	sh.end(s)
	pt.thm2 = time.Since(t1)
	if err != nil {
		return pt, fmt.Errorf("theorem 2: %w", err)
	}
	t2 := time.Now()
	s = sh.begin("spanner.verify", cs, req)
	v1, v2 := alg1.VerifyDistance(3), thm2.VerifyDistance(3)
	sh.end(s)
	pt.verify = time.Since(t2)
	sh.end(cs)
	pt.construct, pt.constructCPU = time.Since(t0), processCPU()-cpu0
	t.add(v1.Violations == 0, "algorithm 1 spanner: %d stretch violations at α=3", v1.Violations)
	t.add(v2.Violations == 0, "theorem 2 spanner: %d stretch violations at α=3", v2.Violations)
	pt.edges = alg1.Graph().M() + thm2.Graph().M()

	t3, cpu3 := time.Now(), processCPU()
	rs := sh.begin("route", root, req)
	for i, dc := range []*core.DCSpanner{alg1, thm2} {
		t4 := time.Now()
		s = sh.begin("routing.shortest_paths", rs, req)
		onG, err := routing.ShortestPaths(dc.Base(), in.prob)
		sh.end(s)
		t5 := time.Now()
		if err != nil {
			return pt, fmt.Errorf("spanner %d: route on G: %w", i, err)
		}
		s = sh.begin("routing.substitute", rs, req)
		onH, _, err := dc.SubstituteRouting(onG)
		sh.end(s)
		t6 := time.Now()
		if err != nil {
			return pt, fmt.Errorf("spanner %d: substitute routing: %w", i, err)
		}
		s = sh.begin("routing.measure", rs, req)
		st := core.MeasureStretch(dc.Base().N(), onG, onH)
		sh.end(s)
		pt.shortest += t5.Sub(t4)
		pt.substitute += t6.Sub(t5)
		pt.measure += time.Since(t6)
		t.add(st.DistanceStretch <= 3, "spanner %d: substitute distance stretch %.3f > 3", i, st.DistanceStretch)
		bad := badPaths(dc.Graph(), onH)
		t.add(bad == 0, "spanner %d: %d substitute paths are not walks in H between their endpoints", i, bad)
		if st.CongestionStretch > pt.congestionStretch {
			pt.congestionStretch = st.CongestionStretch
		}
		pt.demands += len(in.prob)
	}
	sh.end(rs)
	pt.route, pt.routeCPU = time.Since(t3), processCPU()-cpu3
	return pt, nil
}

// badPaths counts the paths of r that do not walk H from their pair's
// source to its destination.
func badPaths(h *graph.Graph, r *routing.Routing) int {
	if len(r.Paths) != len(r.Problem) {
		return len(r.Problem)
	}
	bad := 0
	for i, p := range r.Paths {
		pr := r.Problem[i]
		ok := len(p) > 0 && p[0] == pr.Src && p[len(p)-1] == pr.Dst
		for j := 1; ok && j < len(p); j++ {
			ok = h.HasEdge(p[j-1], p[j])
		}
		if !ok {
			bad++
		}
	}
	return bad
}

// copyPhases records the children of an obs.Span phase tree as spans
// under parent. obs.Span exposes durations but not start times, so each
// child is laid out after its preceding siblings; the durations are
// exact, the offsets within the parent approximate.
func copyPhases(sh *spanShard, tr *obs.Span, parent int32, start time.Duration, req uint64, prefix string, out map[string]time.Duration) {
	for _, c := range tr.Children() {
		name := prefix + "." + strings.ReplaceAll(c.Name(), "-", "_")
		if c.Name() == "regular" {
			// The Algorithm 1 root span: its phases belong directly under prefix.
			copyPhases(sh, c, parent, start, req, prefix, out)
			start += c.Duration()
			continue
		}
		d := c.Duration()
		id := sh.add(name, start, start+d, parent, req)
		out[name] += d
		copyPhases(sh, c, id, start, req, name, out)
		start += d
	}
}

// runReproduce times the pipeline run after run for the window. The
// request is the route step (two routing problems of p.demands pairs), the
// update is the construction step that rebuilds both spanners; both are
// timed on the process CPU clock, as the serving workloads' updates are.
func runReproduce(cfg runConfig) (tally, map[string]metric, error) {
	return runReproduceWith(cfg, reproduceDefault)
}

func runReproduceWith(cfg runConfig, p reproduceParams) (tally, map[string]metric, error) {
	var (
		t          tally
		setup      []float64
		setupGauge speedGauge
		in         pipelineInput
		err        error
	)
	for i := 0; i < p.setups; i++ {
		runtime.GC()
		t0 := time.Now()
		in, err = genPipelineInput(p, cfg.seed)
		if err != nil {
			return t, nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
		takeGauge(&setupGauge)
	}
	if _, err := runPipeline(in, nil, 0, &t); err != nil { // warm-up
		return t, nil, err
	}
	heap := heapMiB()

	var gauge speedGauge
	window := func(d time.Duration, rec *recorder) ([]pipelineTimes, error) {
		sh := rec.shard()
		var runs []pipelineTimes
		start := time.Now()
		for len(runs) < 3 || time.Since(start) < d {
			takeGauge(&gauge)
			runtime.GC() // as in setupReps: every run starts from the same heap state
			pt, err := runPipeline(in, sh, uint64(len(runs)), &t)
			if err != nil {
				return runs, err
			}
			runs = append(runs, pt)
		}
		return runs, nil
	}
	if !cfg.trace {
		runs, err := window(cfg.window, nil)
		if err != nil {
			return t, nil, err
		}
		var construct, route []float64
		w := gauge.scale() // see speed.go
		for _, r := range runs {
			construct = append(construct, us(r.constructCPU)*w)
			route = append(route, us(r.routeCPU)*w)
		}
		setupGauge.note("set-up")
		gauge.note("window")
		m := map[string]metric{
			"setup_s":         {median(setup) * setupGauge.scale(), "s"},
			"queries_per_s":   {float64(runs[0].demands) / (mean(route) / 1e6), "1/s"},
			"request_mean_us": {mean(route), "us"},
			"request_p90_us":  {quantile(route, 0.9), "us"},
			"update_mean_us":  {mean(construct), "us"},
			"update_p90_us":   {quantile(construct, 0.9), "us"},
			"heap_mib":        {heap, "MiB"},
		}
		return t, m, nil
	}

	m := map[string]metric{}
	ms0 := readMem()
	base, err := window(cfg.window/2, nil)
	ms1 := readMem()
	if err != nil {
		return t, nil, err
	}
	rec := newRecorder()
	traced, err := window(cfg.window/2, rec)
	if err != nil {
		return t, nil, err
	}
	var baseRun, tracedRun []float64
	var baseHist hist
	demands := 0
	for _, r := range base {
		baseRun = append(baseRun, us(r.construct+r.route))
		baseHist.add(us(r.construct + r.route))
		demands += r.demands
	}
	for _, r := range traced {
		tracedRun = append(tracedRun, us(r.construct+r.route))
	}
	pipelineMetrics(m, traced)
	runtimeMetrics(m, ms0, ms1, int64(demands))
	counterMetrics(m, nil, nil) // no serving oracle answers traffic here
	clientMetrics(m, &baseHist, nil)
	m["gen.graph_ms"] = metric{1e3 * median(setup), "ms"}
	m["trace.overhead_ratio"] = metric{median(tracedRun) / median(baseRun), "ratio"}

	// The serving and update ladders run on the Theorem 2 spanner of the
	// pipeline's input with the exact-table backend.
	dc, sb, ob, err := timeStaticBuild(in.g2, in.seed, pointOracle)
	if err != nil {
		return t, nil, err
	}
	m["spanner.build_ms"], m["oracle.build_ms"] = sb, ob
	if err := ladders(m, rec, &t, cfg.seed, dc.Base(), dc.Graph(), staticOracles(dc, pointOracle), pointOracle, nil, nil); err != nil {
		return t, nil, err
	}
	return t, m, finishTrace(m, rec, cfg, "reproduce")
}

// pipelineMetrics reports the median step and phase times of runs.
func pipelineMetrics(m map[string]metric, runs []pipelineTimes) {
	col := func(f func(pipelineTimes) time.Duration) float64 {
		xs := make([]float64, len(runs))
		for i, r := range runs {
			xs[i] = ms(f(r))
		}
		return median(xs)
	}
	m["spanner.alg1_ms"] = metric{col(func(r pipelineTimes) time.Duration { return r.alg1 }), "ms"}
	m["spanner.thm2_ms"] = metric{col(func(r pipelineTimes) time.Duration { return r.thm2 }), "ms"}
	m["spanner.verify_ms"] = metric{col(func(r pipelineTimes) time.Duration { return r.verify }), "ms"}
	m["routing.shortest_paths_ms"] = metric{col(func(r pipelineTimes) time.Duration { return r.shortest }), "ms"}
	m["routing.substitute_ms"] = metric{col(func(r pipelineTimes) time.Duration { return r.substitute }), "ms"}
	m["routing.measure_ms"] = metric{col(func(r pipelineTimes) time.Duration { return r.measure }), "ms"}
	for _, ph := range alg1Phases {
		name := "spanner.alg1." + ph
		m[name+"_ms"] = metric{col(func(r pipelineTimes) time.Duration { return r.alg1Phases[name] }), "ms"}
	}
	last := runs[len(runs)-1]
	m["spanner.edges"] = metric{float64(last.edges), "count"}
	m["routing.congestion_stretch"] = metric{last.congestionStretch, "ratio"}
}

// alg1Phases are the phase spans spanner.BuildRegular opens under its
// "regular" span, with '-' written as '_'.
var alg1Phases = []string{"sample_gprime", "supported_edges", "partition_edges", "detour_check"}
