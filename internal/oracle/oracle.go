// Package oracle is the serving layer over a built DC-spanner: a
// concurrent point-to-point query engine answering approximate distance
// and routing queries on the spanner graph H while accounting realized
// stretch against the base graph G.
//
// Distance resolution is pluggable behind the Backend interface; three
// engines ship (see Options.Backend and DESIGN.md §14):
//
//   - landmark-bibfs (the default): a sharded LRU result cache, a
//     k-landmark upper-bound table answering min_l d(u,l)+d(l,v) in
//     O(k), and a bounded bidirectional BFS for the exact-on-spanner
//     distance, pruned by the landmark bound;
//   - exact-cached: a precomputed all-pairs table for small graphs —
//     O(n²) space, O(1) queries, every answer exact;
//   - sparse-hub: the two-level hub/bunch design for sparse graphs —
//     O(n^{3/2}) space at the default √n hubs, stretch bound 3.
//
// Options.Backend "auto" benchmarks the candidates on a sampled query
// mix at startup and serves the fastest one within the memory budget.
//
// Because H is an (α, β)-DC-spanner, the exact-on-H distance is within
// the certified α of the true distance on G; the oracle verifies this
// empirically by re-answering a deterministic sample of queries with an
// exact BFS on G and tracking the realized stretch. All structures are
// safe for concurrent use and AnswerBatch fans queries out over a worker
// pool; answers are independent of scheduling (resolution is
// deterministic and the landmark backend's cache stores only exact
// values, so a hit and a recomputation agree).
package oracle

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/routing"
	"repro/internal/spanner"
	"repro/internal/stats"
)

// Metric names the oracle registers (counters are exposed with the
// _total suffix on /metrics). One oracle per registry: a second oracle
// registering into the same registry panics on the duplicate names.
// Backend-owned families (cache, resolution paths) carry a
// backend="<name>" label so mixed-backend fleets scraped together stay
// distinguishable; oracle-level families (queries, latency, stretch)
// are unlabeled.
const (
	metricDistQueries   = "oracle_dist_queries"
	metricRouteQueries  = "oracle_route_queries"
	metricCacheHits     = "oracle_cache_hits"
	metricCacheMisses   = "oracle_cache_misses"
	metricPathCacheHit  = "oracle_path_cache_hit"
	metricPathBiBFS     = "oracle_path_bibfs"
	metricPathBulk      = "oracle_path_bulk"
	metricPathExact     = "oracle_path_exact"
	metricPathBunch     = "oracle_path_bunch"
	metricPathHub       = "oracle_path_hub"
	metricFrontierMax   = "oracle_bibfs_frontier_max"
	metricDistLatency   = "oracle_dist_latency_seconds"
	metricRouteLatency  = "oracle_route_latency_seconds"
	metricStretchN      = "oracle_stretch_samples"
	metricRealizedAlpha = "oracle_realized_alpha"
	metricMeanStretch   = "oracle_mean_stretch"
	metricMaxCongestion = "oracle_max_route_congestion"
	metricLandmarks     = "oracle_landmarks"
	metricSparseHubs    = "oracle_sparse_hubs"
	metricBunchEntries  = "oracle_sparse_bunch_entries"
	metricBackendInfo   = "oracle_backend_info"
	metricBackendBound  = "oracle_backend_stretch_bound"
	metricBackendMemory = "oracle_backend_memory_bytes"
)

// Options configures New. The zero value serves the landmark-bibfs
// backend with its historical defaults, so existing callers (and the
// committed bench baselines) are unaffected by the backend layer.
type Options struct {
	// Backend selects the distance-resolution engine: one of
	// BackendLandmarkBiBFS, BackendExactCached, BackendSparseHub, or
	// BackendAuto to benchmark them at startup and serve the fastest
	// within MemoryBudget. Empty means BackendLandmarkBiBFS.
	Backend string
	// Landmarks is the number of BFS trees precomputed on H by the
	// landmark-bibfs backend (clamped to [1, n]); 0 means the default 16.
	Landmarks int
	// SparseHubs is the sparse-hub backend's hub count — its space/query
	// knob: more hubs mean bigger rows but smaller bunches and tighter
	// bounds. 0 means ⌈√n⌉, the point balancing rows against bunches.
	SparseHubs int
	// Seed keys landmark/hub selection; 0 inherits the spanner's build
	// seed (so oracle determinism follows spanner determinism).
	Seed uint64
	// CacheSize is the landmark-bibfs backend's total LRU capacity across
	// shards; 0 means the default 1<<16 entries, negative disables
	// caching.
	CacheSize int
	// Shards is the cache shard count (rounded up to a power of two); 0
	// means 4× the parallel worker count.
	Shards int
	// Workers bounds AnswerBatch's worker pool; 0 means GOMAXPROCS.
	Workers int
	// SampleEvery verifies every k-th Dist query against an exact BFS on
	// the base graph and records the realized stretch; 0 means the default
	// 64, negative disables sampling.
	SampleEvery int
	// MemoryBudget caps the precomputed state of auto-tuned backends in
	// bytes; candidates over it are skipped. 0 means the 128 MiB
	// default; negative disables the gate. Ignored when Backend names a
	// concrete engine — an explicit choice is always honored.
	MemoryBudget int64
	// TunerProbes is the number of sampled queries the auto-tuner times
	// each candidate on; 0 means the default 2048.
	TunerProbes int
	// Registry receives the oracle's serving metrics (query/path counters,
	// latency and frontier histograms, stretch gauges). Nil means a
	// private registry, still reachable via Oracle.Registry — passing the
	// process-wide registry is how dcserve unifies /metrics, the wire
	// stats response, and the demo summary.
	Registry *obs.Registry
	// Trace, when non-nil, receives precomputation phase spans (the
	// backend build, and the tuner sweep under Backend "auto").
	Trace *obs.Span
}

// Query is one point-to-point distance request.
type Query struct {
	U, V int32
}

// Answer is the oracle's reply to a Query.
type Answer struct {
	U, V int32
	// Dist is the hop distance on the spanner H — exact when Exact is
	// true, the serving backend's upper-bound estimate otherwise (the
	// landmark bound, or the sparse backend's hub bound, both within the
	// backend's declared stretch of the true spanner distance);
	// graph.Unreachable for disconnected pairs and invalid queries.
	Dist int32
	// Bound is the backend's admissible upper bound on the spanner
	// distance — the O(k) landmark bound for landmark-bibfs, the hub
	// bound for sparse-hub, Dist itself for exact-cached
	// (graph.Unreachable when nothing connects the endpoints).
	Bound int32
	// Exact reports whether Dist is the exact spanner distance.
	Exact bool
}

// Stats is a point-in-time snapshot of the oracle's serving metrics.
type Stats struct {
	Queries     int64 // Dist queries (Route lookups are counted in Routes only)
	Routes      int64
	CacheHits   int64   // landmark-bibfs result cache; 0 for cacheless backends
	CacheMisses int64   // ditto
	HitRate     float64 // hits / (hits+misses); 0 when cache disabled or idle

	LatencyMean float64 // seconds, Dist queries
	LatencyP50  float64
	LatencyP95  float64
	LatencyP99  float64

	// Route latencies live in their own histogram so route service time
	// (distance resolution + path reconstruction) never skews the Dist
	// quantiles above.
	RouteLatencyMean float64
	RouteLatencyP50  float64
	RouteLatencyP95  float64
	RouteLatencyP99  float64

	// QPS is (Queries+Routes) per second of wall time since the serving
	// clock started — MarkServingStart resets it when traffic actually
	// begins; until then it runs from New.
	QPS float64

	// Realized-stretch accounting: dist_H / dist_G over the sampled
	// queries (the Chimani–Stutzenstein "realized stretch" viewpoint).
	StretchSamples int
	RealizedAlpha  float64 // max sampled ratio
	MeanStretch    float64 // mean sampled ratio
	CertifiedAlpha int     // 0 when the construction certifies no constant α

	// MaxCongestion is the highest per-node count of served Route paths
	// crossing a vertex (C(P, v) over the routes answered so far).
	MaxCongestion int64
	Landmarks     int // landmark-bibfs BFS trees; 0 for other backends

	// Per-backend reporting: the serving backend's name, declared
	// contract, and own counters. Hit rates and resolution-path counts
	// are attributed to this backend alone — a fleet mixing backends
	// aggregates per-name, never blending counters across engines.
	Backend             string
	BackendStretchBound int
	BackendMemoryBytes  int64
	BackendCounters     map[string]int64
}

// Oracle answers distance and route queries over a DC-spanner through a
// pluggable resolution backend.
type Oracle struct {
	g     distGraph    // base graph G (realized-stretch reference)
	h     *graph.Graph // spanner H (the serving graph)
	alpha int          // certified distance stretch; 0 = uncertified

	backend Backend
	tuner   *TunerReport // non-nil only under Backend "auto"
	workers int

	sampleEvery int64

	latency      *stats.Histogram
	routeLatency *stats.Histogram
	queries      atomic.Int64
	routes       atomic.Int64
	congestion   []int64                   // per-node route-path counts, atomic adds
	start        atomic.Pointer[time.Time] // serving-clock origin, see MarkServingStart

	// reg is the registry all serving metrics live in; the per-query
	// resolution-path counters are backend-owned and labeled by backend
	// name (see Backend.attachMetrics).
	reg *obs.Registry

	stretchMu  sync.Mutex
	stretchN   int
	stretchSum float64
	stretchMax float64

	routePool sync.Pool // *routeScratch
}

// distGraph is what the realized-stretch sampler reads G through: a
// frozen *graph.Graph, or under oracle.Dynamic the live *graph.DynGraph,
// read under the engine's read lock so updates never materialize G.
type distGraph interface {
	Dist(u, v int32) int32
}

type routeScratch struct {
	bfs    *graph.BFSScratch
	parent []int32
}

// New builds an oracle over a DC-spanner built by core.Build, inheriting
// its certified stretch and (by default) its seed.
func New(dc *core.DCSpanner, opts Options) (*Oracle, error) {
	if opts.Seed == 0 {
		opts.Seed = dc.Seed()
	}
	return NewFromGraphs(dc.Base(), dc.Graph(), dc.CertifiedAlpha(), opts)
}

// NewFromGraphs builds an oracle from an explicit base graph and spanner.
// alpha is the certified distance stretch (0 if uncertified). h must be a
// spanning subgraph of g.
func NewFromGraphs(g, h *graph.Graph, alpha int, opts Options) (*Oracle, error) {
	if g == nil || h == nil || g.N() == 0 {
		return nil, fmt.Errorf("oracle: empty graph")
	}
	if g.N() != h.N() {
		return nil, fmt.Errorf("oracle: spanner has %d vertices, base has %d", h.N(), g.N())
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = graph.Workers()
	}
	sampleEvery := int64(opts.SampleEvery)
	if sampleEvery == 0 {
		sampleEvery = 64
	}
	var (
		be    Backend
		tuner *TunerReport
		err   error
	)
	if opts.Backend == BackendAuto {
		be, tuner, err = autoTune(h, opts, workers, opts.Trace)
	} else {
		be, err = buildBackend(opts.Backend, h, opts, workers, opts.Trace)
	}
	if err != nil {
		return nil, err
	}
	o := &Oracle{
		g:            g,
		h:            h,
		alpha:        alpha,
		backend:      be,
		tuner:        tuner,
		workers:      workers,
		sampleEvery:  sampleEvery,
		latency:      stats.NewLatencyHistogram(),
		routeLatency: stats.NewLatencyHistogram(),
		congestion:   make([]int64, g.N()),
	}
	o.MarkServingStart()
	o.routePool.New = func() any {
		return &routeScratch{bfs: graph.NewBFSScratch(h.N()), parent: make([]int32, h.N())}
	}
	o.registerMetrics(opts.Registry)
	return o, nil
}

// registerMetrics wires the oracle's serving metrics into reg (or a fresh
// private registry when nil). Stats snapshots and /metrics exposition
// both read through this registry, so every consumer sees the same
// numbers. The serving backend attaches its own labeled counters here;
// tuner candidates that lost are never attached.
func (o *Oracle) registerMetrics(reg *obs.Registry) {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	o.reg = reg
	reg.CounterFunc(metricDistQueries, "Dist queries answered.", o.queries.Load)
	reg.CounterFunc(metricRouteQueries, "Route queries answered.", o.routes.Load)
	reg.GaugeFuncLabeled(metricBackendInfo,
		"Serving distance-resolution backend (info gauge: the labeled series is 1).",
		"backend", o.backend.Name(), func() float64 { return 1 })
	reg.GaugeFunc(metricBackendBound,
		"Declared worst-case stretch of the serving backend vs the exact spanner distance (0 = undeclared).",
		func() float64 { return float64(o.backend.StretchBound()) })
	reg.GaugeFunc(metricBackendMemory,
		"Estimated bytes of the serving backend's precomputed state.",
		func() float64 { return float64(o.backend.MemoryBytes()) })
	o.backend.attachMetrics(reg)
	reg.RegisterHistogram(metricDistLatency, "Dist query service time.", o.latency)
	reg.RegisterHistogram(metricRouteLatency, "Route query service time.", o.routeLatency)
	reg.GaugeFunc(metricStretchN, "Realized-stretch samples taken.", func() float64 {
		o.stretchMu.Lock()
		defer o.stretchMu.Unlock()
		return float64(o.stretchN)
	})
	reg.GaugeFunc(metricRealizedAlpha, "Maximum sampled dist_H/dist_G ratio.", func() float64 {
		o.stretchMu.Lock()
		defer o.stretchMu.Unlock()
		return o.stretchMax
	})
	reg.GaugeFunc(metricMeanStretch, "Mean sampled dist_H/dist_G ratio.", func() float64 {
		o.stretchMu.Lock()
		defer o.stretchMu.Unlock()
		if o.stretchN == 0 {
			return 0
		}
		return o.stretchSum / float64(o.stretchN)
	})
	reg.GaugeFunc(metricMaxCongestion, "Highest per-node count of served route paths.", func() float64 {
		var max int64
		for i := range o.congestion {
			if c := atomic.LoadInt64(&o.congestion[i]); c > max {
				max = c
			}
		}
		return float64(max)
	})
}

// Registry returns the registry holding the oracle's metrics — the one
// passed in Options or the private one created in its place.
func (o *Oracle) Registry() *obs.Registry { return o.reg }

// N returns the number of vertices the oracle serves — queries must have
// both endpoints in [0, N).
func (o *Oracle) N() int { return o.h.N() }

// Backend returns the name of the serving backend — the explicit
// Options.Backend choice, or the auto-tuner's pick.
func (o *Oracle) Backend() string { return o.backend.Name() }

// TunerReport returns the startup auto-tuning report, or nil when
// Options.Backend named a concrete backend.
func (o *Oracle) TunerReport() *TunerReport { return o.tuner }

// BackendStats snapshots the serving backend's own counters and
// declared contract (also embedded in Stats).
func (o *Oracle) BackendStats() BackendStats { return o.backend.Stats() }

// MarkServingStart resets the serving clock that Stats.QPS is measured
// against. New arms it at construction time, which charges the idle gap
// between precomputation and the first query to the throughput figure;
// callers that serve traffic (dcserve's demo and server paths) call this
// once when serving actually begins. Safe for concurrent use with Stats.
func (o *Oracle) MarkServingStart() {
	now := time.Now()
	o.start.Store(&now)
}

// Landmarks returns the sorted landmark vertex ids of the landmark-bibfs
// backend, or nil when another backend serves.
func (o *Oracle) Landmarks() []int32 {
	if lb, ok := o.backend.(*landmarkBackend); ok {
		return append([]int32(nil), lb.lm.roots...)
	}
	return nil
}

// LandmarkBytes serializes the landmark-bibfs backend's landmark table —
// two oracles over the same spanner and seed produce identical bytes
// (the determinism contract) — or nil when another backend serves.
func (o *Oracle) LandmarkBytes() []byte {
	if lb, ok := o.backend.(*landmarkBackend); ok {
		return lb.lm.Bytes()
	}
	return nil
}

// applyUpdate swings the oracle onto the refreshed spanner h and has
// the backend repair its precomputed state in place from the spanner
// delta d (Backend.refresh). The vertex set never changes, so every
// n-sized structure — the congestion array, the route and search
// scratch pools, the metric closures — carries over untouched. NOT safe
// against concurrent queries: the caller must hold an exclusive lock
// over the oracle (oracle.Dynamic holds its update lock here).
func (o *Oracle) applyUpdate(h *graph.Graph, d spanner.Delta) {
	o.h = h
	o.backend.refresh(h, d)
}

// Dist answers a single distance query. Safe for concurrent use. The
// answer's exactness and bound semantics are the serving backend's (see
// Answer and the Backend* constants).
func (o *Oracle) Dist(u, v int32) (Answer, error) {
	return o.DistTrace(u, v, nil)
}

// DistTrace is Dist with an optional request trace: the resolution path
// taken lands in the trace's path mask and the resolution itself is
// recorded as an "oracle" hop. A nil trace costs nothing beyond the nil
// checks — Dist calls through with nil.
func (o *Oracle) DistTrace(u, v int32, tr *obs.ReqTrace) (Answer, error) {
	t0 := time.Now()
	a, path, err := o.answer(u, v)
	if err == nil {
		o.latency.Observe(time.Since(t0).Seconds())
	}
	if tr != nil {
		tr.OrPath(path)
		tr.Hop("oracle", t0, "path="+obs.PathString(path))
	}
	return a, err
}

// answer is Dist without latency accounting (shared with AnswerBatch): it
// resolves the distance and charges the query to the Dist counters and the
// stretch sampler. The second return is the obs.Path* bit the resolution
// took (0 for self/invalid queries).
func (o *Oracle) answer(u, v int32) (Answer, uint8, error) {
	ans, path, err := o.resolve(u, v)
	if err != nil {
		return ans, path, err
	}
	seq := o.queries.Add(1)
	if ans.Exact && u != v {
		o.maybeSampleStretch(seq, u, v, ans.Dist)
	}
	return ans, path, nil
}

// resolve computes the distance answer with no serving accounting — Route
// rides on it so route lookups do not inflate Stats.Queries or the Dist
// latency histogram. Validation and self-queries are handled here; valid
// u ≠ v pairs delegate to the serving backend, which reports the
// obs.Path* bit its resolution took (0 when no path ran).
func (o *Oracle) resolve(u, v int32) (Answer, uint8, error) {
	n := int32(o.h.N())
	if u < 0 || v < 0 || u >= n || v >= n {
		return Answer{U: u, V: v, Dist: graph.Unreachable, Bound: graph.Unreachable}, 0,
			fmt.Errorf("oracle: query (%d,%d) out of range [0,%d)", u, v, n)
	}
	if u == v {
		return Answer{U: u, V: v, Exact: true}, 0, nil
	}
	a, path := o.backend.Dist(u, v)
	return a, path, nil
}

// maybeSampleStretch re-answers every sampleEvery-th query exactly on G
// and records the realized stretch dist_H / dist_G.
func (o *Oracle) maybeSampleStretch(seq int64, u, v, dh int32) {
	if o.sampleEvery <= 0 || seq%o.sampleEvery != 0 || dh == graph.Unreachable {
		return
	}
	dg := o.g.Dist(u, v)
	if dg <= 0 {
		return
	}
	ratio := float64(dh) / float64(dg)
	o.stretchMu.Lock()
	o.stretchN++
	o.stretchSum += ratio
	if ratio > o.stretchMax {
		o.stretchMax = ratio
	}
	o.stretchMu.Unlock()
}

// Route answers a routing query: one shortest path on H realizing the
// exact spanner distance (or, for an inexact answer, a path within the
// backend's bound), plus the distance answer. The path's nodes are
// added to the oracle's congestion accounting (C(P, v) over served
// routes). Returns a nil path for disconnected pairs.
//
// Routes are accounted separately from Dist queries: the distance lookup
// inside Route increments neither Stats.Queries nor the Dist latency
// histogram (so route traffic cannot double-count against a caller's own
// query totals); the full route service time lands in the route latency
// histogram instead.
func (o *Oracle) Route(u, v int32) (routing.Path, Answer, error) {
	t0 := time.Now()
	ans, _, err := o.resolve(u, v)
	if err != nil {
		return nil, ans, err
	}
	if ans.Dist == graph.Unreachable {
		o.finishRoute(t0)
		return nil, ans, nil
	}
	rs := o.routePool.Get().(*routeScratch)
	limit := ans.Dist
	if !ans.Exact {
		limit = ans.Bound
	}
	p := rs.bfs.PathWithin(o.h, u, v, limit, rs.parent)
	o.routePool.Put(rs)
	if p == nil {
		return nil, ans, fmt.Errorf("oracle: inconsistent state: dist=%d but no path within it", ans.Dist)
	}
	for _, x := range p {
		atomic.AddInt64(&o.congestion[x], 1)
	}
	o.finishRoute(t0)
	return routing.Path(p), ans, nil
}

// finishRoute records one served route against the route counters.
func (o *Oracle) finishRoute(t0 time.Time) {
	o.routes.Add(1)
	o.routeLatency.Observe(time.Since(t0).Seconds())
}

// Stats snapshots the serving metrics. The snapshot is taken through the
// metrics registry in one pass — every atomic is read exactly once and
// all derived figures (hit rate, QPS, quantiles) come from those same
// reads, so a snapshot under load is internally consistent. Because a
// cache lookup precedes its query's counter increment on the hot path, a
// racing read can still observe marginally more cache operations than
// finished queries; the hit counters are clamped to the query totals and
// HitRate to [0, 1] so no consumer sees an impossible figure.
func (o *Oracle) Stats() Stats {
	return o.StatsFrom(o.reg.Snapshot())
}

// StatsFrom derives the Stats view from an already-taken registry
// snapshot — the path by which a serving layer that also owns counters
// in the same registry (internal/server) renders its whole stats line
// from one capture instant. Backend-owned series live in the snapshot
// under backend-labeled keys; the cache figures here are therefore the
// serving backend's own, never another engine's.
func (o *Oracle) StatsFrom(snap obs.Snapshot) Stats {
	name := o.backend.Name()
	s := Stats{
		Queries:             snap.Counters[metricDistQueries],
		Routes:              snap.Counters[metricRouteQueries],
		CacheHits:           snap.Counters[backendKey(metricCacheHits, name)],
		CacheMisses:         snap.Counters[backendKey(metricCacheMisses, name)],
		CertifiedAlpha:      o.alpha,
		Landmarks:           len(o.Landmarks()),
		StretchSamples:      int(snap.Gauges[metricStretchN]),
		RealizedAlpha:       snap.Gauges[metricRealizedAlpha],
		MeanStretch:         snap.Gauges[metricMeanStretch],
		MaxCongestion:       int64(snap.Gauges[metricMaxCongestion]),
		Backend:             name,
		BackendStretchBound: o.backend.StretchBound(),
		BackendMemoryBytes:  o.backend.MemoryBytes(),
		BackendCounters:     o.backend.Stats().Counters,
	}
	if total := s.Queries + s.Routes; s.CacheHits > total {
		s.CacheHits = total
	}
	if lookups := s.CacheHits + s.CacheMisses; lookups > 0 {
		s.HitRate = float64(s.CacheHits) / float64(lookups)
		if s.HitRate > 1 {
			s.HitRate = 1
		}
	}
	lat := snap.Histograms[metricDistLatency]
	s.LatencyMean = lat.Mean()
	s.LatencyP50 = lat.Quantile(0.50)
	s.LatencyP95 = lat.Quantile(0.95)
	s.LatencyP99 = lat.Quantile(0.99)
	rl := snap.Histograms[metricRouteLatency]
	s.RouteLatencyMean = rl.Mean()
	s.RouteLatencyP50 = rl.Quantile(0.50)
	s.RouteLatencyP95 = rl.Quantile(0.95)
	s.RouteLatencyP99 = rl.Quantile(0.99)
	if el := time.Since(*o.start.Load()).Seconds(); el > 0 {
		s.QPS = float64(s.Queries+s.Routes) / el
	}
	return s
}

// String renders the snapshot as a single report line.
func (s Stats) String() string {
	return fmt.Sprintf(
		"backend=%s queries=%d routes=%d hitRate=%.3f p50=%.3gs p95=%.3gs p99=%.3gs routeP50=%.3gs routeP99=%.3gs qps=%.0f realizedAlpha=%.3f (certified %d, %d samples) maxCong=%d landmarks=%d",
		s.Backend, s.Queries, s.Routes, s.HitRate, s.LatencyP50, s.LatencyP95, s.LatencyP99,
		s.RouteLatencyP50, s.RouteLatencyP99,
		s.QPS, s.RealizedAlpha, s.CertifiedAlpha, s.StretchSamples, s.MaxCongestion, s.Landmarks)
}
