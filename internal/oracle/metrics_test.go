package oracle

import (
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/rng"
)

// TestPathCountersPartitionResolutions: every non-trivial resolution ends
// in exactly one of cache-hit / bibfs, so the two path counters sum to
// the cache lookup total.
func TestPathCountersPartitionResolutions(t *testing.T) {
	dc := buildTestSpanner(t, 128, 32, 5)
	reg := obs.NewRegistry()
	o, err := New(dc, Options{Landmarks: 8, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(7)
	const n = 400
	for i := 0; i < n; i++ {
		u := int32(r.Intn(o.N()))
		v := int32(r.Intn(o.N()))
		if u == v {
			continue
		}
		if _, err := o.Dist(u, v); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	key := func(name string) string { return backendKey(name, BackendLandmarkBiBFS) }
	hit := snap.Counters[key(metricPathCacheHit)]
	bfs := snap.Counters[key(metricPathBiBFS)]
	lookups := snap.Counters[key(metricCacheHits)] + snap.Counters[key(metricCacheMisses)]
	if hit+bfs != lookups {
		t.Errorf("path counters %d+%d != cache lookups %d", hit, bfs, lookups)
	}
	if bfs == 0 {
		t.Error("no bibfs resolutions recorded")
	}
	if hit != snap.Counters[key(metricCacheHits)] {
		t.Errorf("path cache-hit %d != cache hits %d", hit, snap.Counters[key(metricCacheHits)])
	}
	// Every exact search observed its frontier.
	fr := snap.Histograms[metricFrontierMax]
	if fr.Count != bfs {
		t.Errorf("frontier observations %d != searches %d", fr.Count, bfs)
	}
	if fr.Max < 1 {
		t.Errorf("frontier max %v < 1", fr.Max)
	}
}

// TestStatsFromRegistrySnapshot: Stats figures agree with the registry
// exposition, and the consistency clamps hold.
func TestStatsFromRegistrySnapshot(t *testing.T) {
	dc := buildTestSpanner(t, 128, 32, 6)
	reg := obs.NewRegistry()
	o, err := New(dc, Options{Landmarks: 8, Registry: reg, SampleEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(11)
	for i := 0; i < 300; i++ {
		u, v := int32(r.Intn(o.N())), int32(r.Intn(o.N()))
		if _, err := o.Dist(u, v); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := o.Route(1, 2); err != nil {
		t.Fatal(err)
	}
	s := o.Stats()
	snap := reg.Snapshot()
	if s.Queries != snap.Counters[metricDistQueries] {
		t.Errorf("Stats.Queries %d != registry %d", s.Queries, snap.Counters[metricDistQueries])
	}
	if s.Routes != 1 {
		t.Errorf("Routes = %d, want 1", s.Routes)
	}
	if s.HitRate < 0 || s.HitRate > 1 {
		t.Errorf("HitRate %v out of [0,1]", s.HitRate)
	}
	if s.CacheHits > s.Queries+s.Routes {
		t.Errorf("clamp failed: CacheHits %d > Queries+Routes %d", s.CacheHits, s.Queries+s.Routes)
	}
	if s.StretchSamples == 0 {
		t.Error("no stretch samples with SampleEvery=8 over 300 queries")
	}
	if s.LatencyP50 <= 0 {
		t.Error("latency p50 not positive")
	}

	// The Prometheus exposition covers the oracle metric families.
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"oracle_dist_queries_total",
		"oracle_cache_hits_total",
		"oracle_path_bibfs_total",
		"oracle_dist_latency_seconds_bucket{le=",
		"oracle_realized_alpha",
		"oracle_landmarks",
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestPrivateRegistryWhenNil: a nil Options.Registry still yields a
// working registry, and two such oracles do not collide.
func TestPrivateRegistryWhenNil(t *testing.T) {
	dc := buildTestSpanner(t, 128, 32, 9)
	o1, err := New(dc, Options{Landmarks: 4})
	if err != nil {
		t.Fatal(err)
	}
	o2, err := New(dc, Options{Landmarks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if o1.Registry() == nil || o2.Registry() == nil || o1.Registry() == o2.Registry() {
		t.Error("private registries missing or shared")
	}
	if _, err := o1.Dist(0, 1); err != nil {
		t.Fatal(err)
	}
	if got := o1.Registry().Snapshot().Counters[metricDistQueries]; got != 1 {
		t.Errorf("o1 queries = %d, want 1", got)
	}
}
