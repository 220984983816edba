package oracle

import (
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/spanner"
	"repro/internal/stats"
)

// landmarkBackend is the original serving engine (see the package doc):
// a sharded LRU result cache, a k-landmark upper-bound table, and a
// bidirectional BFS for the exact-on-spanner distance, plus a bulk
// multi-source BFS arm for large batches. It declares stretch bound 1 —
// every answer is exact on H; the landmark bound rides along in
// Answer.Bound.
type landmarkBackend struct {
	h       *graph.Graph
	lm      *landmarkTable
	cache   *shardedCache
	workers int
	lmCount int    // resolved landmark count, kept for refresh
	seed    uint64 // landmark-selection seed, kept for refresh

	pathCacheHit atomic.Int64
	pathBiBFS    atomic.Int64
	pathBulk     atomic.Int64
	frontier     *stats.Histogram

	searchPool sync.Pool // *biScratch
}

// newLandmarkBackend builds the landmark table and cache per the
// Options defaults: 16 landmarks and a 1<<16-entry cache over 4×workers
// shards.
func newLandmarkBackend(h *graph.Graph, opts Options, workers int, trace *obs.Span) *landmarkBackend {
	k := opts.Landmarks
	if k == 0 {
		k = 16
	}
	shards := opts.Shards
	if shards <= 0 {
		shards = 4 * workers
	}
	cacheSize := opts.CacheSize
	if cacheSize == 0 {
		cacheSize = 1 << 16
	}
	lsp := trace.Start("landmark-table")
	lm := buildLandmarkTable(h, k, opts.Seed)
	lsp.SetKV("landmarks", len(lm.roots))
	lsp.End()
	b := &landmarkBackend{
		h:        h,
		lm:       lm,
		cache:    newShardedCache(cacheSize, shards),
		workers:  workers,
		lmCount:  k,
		seed:     opts.Seed,
		frontier: stats.NewHistogram(stats.ExpBuckets(1, 2, 22)),
	}
	b.searchPool.New = func() any { return newBiScratch(h.N()) }
	return b
}

// Name implements Backend.
func (b *landmarkBackend) Name() string { return BackendLandmarkBiBFS }

// StretchBound implements Backend: 1, every answer is exact on H.
func (b *landmarkBackend) StretchBound() int { return 1 }

// MemoryBytes implements Backend: the landmark rows plus the cache's
// slot arrays (each entry holds a key, value, and two list links).
func (b *landmarkBackend) MemoryBytes() int64 {
	bytes := int64(4 * len(b.lm.roots) * (1 + b.h.N())) // roots + k×n rows
	if b.cache != nil {
		bytes += int64(b.cache.slots()) * 24 // key 8 + val 4 + prev/next 8 + map slot ~4
	}
	return bytes
}

// Dist implements Backend: cache probe, then bidirectional BFS, with the
// landmark upper bound reported alongside.
func (b *landmarkBackend) Dist(u, v int32) (Answer, uint8) {
	ans := Answer{U: u, V: v, Exact: true}
	ans.Bound = b.lm.upperBound(u, v)
	key := packKey(u, v)
	if b.cache != nil {
		if d, ok := b.cache.get(key); ok {
			b.pathCacheHit.Add(1)
			ans.Dist = d
			return ans, obs.PathCache
		}
	}
	sc := b.searchPool.Get().(*biScratch)
	d := sc.distance(b.h, u, v, ans.Bound)
	b.frontier.Observe(float64(sc.maxFrontier))
	b.searchPool.Put(sc)
	b.pathBiBFS.Add(1)
	ans.Dist = d
	if b.cache != nil {
		b.cache.put(key, d)
	}
	return ans, obs.PathBiBFS
}

// bulkMinBatch is the smallest batch the bulk sweep considers: below it
// the per-query bidirectional path wins outright and the grouping
// bookkeeping is not worth setting up.
const bulkMinBatch = 128

// AnswerBatch implements Backend: the bulk multi-source BFS arm. It
// groups the queries by source vertex, runs one full BFS row per
// distinct source (64 sources per word through the bit-parallel kernel
// when the spanner is dense enough), and reads each query's answer out
// of its source's row.
//
// A full BFS row is always the exact spanner distance, matching the
// per-query search's every answer bit for bit. The arm runs only with
// enough source sharing (valid queries ≥ 2× distinct sources), since
// the sweep's cost is per-source while the per-query path's is
// per-query.
//
// The bulk path never touches the result cache (it neither reads nor
// seeds it — the sweep is cheaper than n cache probes, and a full row
// would flood the LRU); served queries land in the oracle_path_bulk
// counter instead of the per-query resolution-path counters.
func (b *landmarkBackend) AnswerBatch(qs []Query, out []Answer) (uint8, bool) {
	if len(qs) < bulkMinBatch {
		return 0, false
	}
	n := int32(b.h.N())
	invalid := func(q Query) bool {
		return q.U < 0 || q.V < 0 || q.U >= n || q.V >= n
	}
	// Count swept queries per source vertex (invalid and self queries are
	// the Oracle's accounting loop's, not the sweep's).
	cnt := make([]int32, n)
	valid := 0
	for _, q := range qs {
		if invalid(q) || q.U == q.V {
			continue
		}
		cnt[q.U]++
		valid++
	}
	srcs := make([]int32, 0, 64)
	for v := int32(0); v < n; v++ {
		if cnt[v] > 0 {
			srcs = append(srcs, v)
		}
	}
	if len(srcs) == 0 || valid < 2*len(srcs) {
		return 0, false
	}
	// Counting sort of query indices by source, so each BFS row is
	// consumed in one contiguous run: order[off[i]:off[i+1]] holds the
	// batch indices whose source is srcs[i].
	rowOf := make([]int32, n)
	off := make([]int32, len(srcs)+1)
	for i, s := range srcs {
		rowOf[s] = int32(i)
		off[i+1] = off[i] + cnt[s]
	}
	pos := append([]int32(nil), off[:len(srcs)]...)
	order := make([]int32, valid)
	for qi, q := range qs {
		if invalid(q) || q.U == q.V {
			continue
		}
		r := rowOf[q.U]
		order[pos[r]] = int32(qi)
		pos[r]++
	}
	// The sweep writes only out slots owned by its own row's queries, so
	// the batch result is byte-identical at any worker count.
	b.h.MultiSourceBFSSweep(srcs, b.workers, func(i int, src int32, dist []int32) {
		for _, qi := range order[off[i]:off[i+1]] {
			q := qs[qi]
			out[qi] = Answer{
				U: q.U, V: q.V,
				Dist:  dist[q.V],
				Bound: b.lm.upperBound(q.U, q.V),
				Exact: true,
			}
		}
	})
	b.pathBulk.Add(int64(valid))
	return obs.PathBulk, true
}

// refresh implements Backend: rebuild the landmark table on the new
// spanner with the original (count, seed) — selection is deterministic
// in (seed, h), so a refreshed backend holds the exact table a fresh
// build would — and flush the result cache, whose entries were exact
// only on the old spanner. Counters, the frontier histogram, the search
// pool (scratch is sized by n, which updates never change), and metric
// registrations (their closures read b.lm/b.cache through the receiver)
// all survive.
func (b *landmarkBackend) refresh(h *graph.Graph, _ spanner.Delta) {
	b.h = h
	b.lm = buildLandmarkTable(h, b.lmCount, b.seed)
	if b.cache != nil {
		b.cache.flush()
	}
}

// Stats implements Backend.
func (b *landmarkBackend) Stats() BackendStats {
	hits, misses := int64(0), int64(0)
	if b.cache != nil {
		hits, misses = b.cache.counters()
	}
	return BackendStats{
		Name:         b.Name(),
		StretchBound: b.StretchBound(),
		MemoryBytes:  b.MemoryBytes(),
		Counters: map[string]int64{
			"cache_hits":   hits,
			"cache_misses": misses,
			"path_cache":   b.pathCacheHit.Load(),
			"path_bibfs":   b.pathBiBFS.Load(),
			"path_bulk":    b.pathBulk.Load(),
			"landmarks":    int64(len(b.lm.roots)),
		},
	}
}

// attachMetrics implements Backend: every counter is labeled with the
// backend's name, so mixed-backend fleets scraped into one place stay
// distinguishable and per-backend hit rates never blend.
func (b *landmarkBackend) attachMetrics(reg *obs.Registry) {
	label := b.Name()
	hits := func() int64 { return 0 }
	misses := hits
	if b.cache != nil {
		hits = func() int64 { h, _ := b.cache.counters(); return h }
		misses = func() int64 { _, m := b.cache.counters(); return m }
	}
	reg.CounterFuncLabeled(metricCacheHits, "Result-cache hits.", "backend", label, hits)
	reg.CounterFuncLabeled(metricCacheMisses, "Result-cache misses.", "backend", label, misses)
	reg.CounterFuncLabeled(metricPathCacheHit, "Resolutions served from the result cache.",
		"backend", label, b.pathCacheHit.Load)
	reg.CounterFuncLabeled(metricPathBiBFS, "Resolutions answered exactly by bidirectional BFS.",
		"backend", label, b.pathBiBFS.Load)
	reg.CounterFuncLabeled(metricPathBulk, "Batch queries answered exactly by the bulk multi-source BFS sweep.",
		"backend", label, b.pathBulk.Load)
	reg.RegisterHistogram(metricFrontierMax,
		"Largest single-side BFS frontier per exact search (vertices).", b.frontier)
	reg.GaugeFunc(metricLandmarks, "Landmark BFS trees precomputed on H.", func() float64 {
		return float64(len(b.lm.roots))
	})
}
