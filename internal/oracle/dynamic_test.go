package oracle

import (
	"bytes"
	"flag"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/graph/graphtest"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/spanner"
)

// The backend refresh contract, end to end: an oracle.Dynamic driven
// through a random update sequence must answer every pair exactly like
// an oracle freshly built on the current spanner — for every backend.
func TestDynamicMatchesFreshOracle(t *testing.T) {
	base := gen.ErdosRenyi(48, 0.08, rng.New(3))
	for _, name := range BackendNames() {
		opts := Options{Backend: name, Seed: 42, SampleEvery: -1}
		d, err := NewDynamic(base, DynamicOptions{
			Spanner: spanner.IncrementalOptions{Seed: 0xfeed},
			Oracle:  opts,
		})
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(777)
		n := int32(base.N())
		for step := 0; step < 120; step++ {
			u, v := int32(r.Intn(int(n))), int32(r.Intn(int(n)))
			if u == v {
				continue
			}
			if _, err := d.Update(u, v, r.Bernoulli(0.5)); err != nil {
				t.Fatal(err)
			}
			if step%10 != 9 {
				continue
			}
			info := d.Snapshot(true)
			if !info.Verified || !info.Consistent {
				t.Fatalf("%s step %d: snapshot verify failed: %+v", name, step, info)
			}
			s := d.inc.Spanner()
			fresh, err := NewFromGraphs(s.Base, s.H, spanner.IncrementalAlpha, opts)
			if err != nil {
				t.Fatal(err)
			}
			for a := int32(0); a < n; a++ {
				for b := a + 1; b < n; b++ {
					got, err1 := d.Dist(a, b)
					want, err2 := fresh.Dist(a, b)
					if err1 != nil || err2 != nil {
						t.Fatal(err1, err2)
					}
					if got != want {
						t.Fatalf("%s step %d pair (%d,%d): refreshed answer %+v, fresh build %+v",
							name, step, a, b, got, want)
					}
				}
			}
		}
	}
}

// Exact-backend refresh: the patched table must match a fresh sweep
// bit for bit through insertions, deletions (both the affected-row
// rewrite and the >n/2 full-resweep fallback), and disconnect/reconnect
// transitions through graph.Unreachable.
func TestExactRefreshPatchesTable(t *testing.T) {
	n := 40
	cur := gen.ErdosRenyi(n, 0.09, rng.New(5))
	b := newExactBackend(cur, 2, nil)

	check := func(stage string) {
		t.Helper()
		want := newExactBackend(b.h, 2, nil)
		for u := int32(0); u < int32(n); u++ {
			for v := u + 1; v < int32(n); v++ {
				if got, exp := b.tri.At(u, v), want.tri.At(u, v); got != exp {
					t.Fatalf("%s: tri(%d,%d) = %d, fresh sweep has %d", stage, u, v, got, exp)
				}
			}
		}
	}

	mutate := func(stage string, toggle []graph.Edge) {
		t.Helper()
		have := make(map[graph.Edge]bool, b.h.M())
		for _, e := range b.h.Edges() {
			have[e] = true
		}
		for _, e := range toggle {
			e = e.Normalize()
			have[e] = !have[e]
		}
		var edges []graph.Edge
		for e, in := range have {
			if in {
				edges = append(edges, e)
			}
		}
		h := graph.FromEdges(n, edges)
		b.refresh(h, edgeDelta(b.h.Edges(), h.Edges()))
		check(stage)
	}

	// Pure insertions exercise the min-rule patch alone.
	mutate("insert", []graph.Edge{{U: 0, V: 39}, {U: 3, V: 30}, {U: 11, V: 25}})
	// A small deletion exercises the affected-row rewrite.
	some := b.h.Edges()[:2]
	mutate("delete", append([]graph.Edge(nil), some...))
	// Mixed add/remove in one refresh.
	mutate("mixed", []graph.Edge{{U: 0, V: 39}, {U: 1, V: 38}, b.h.Edges()[4]})
	// Delete most edges at once: nearly every row is affected, driving
	// the >n/2 full-resweep fallback and plenty of Unreachable pairs.
	bulk := append([]graph.Edge(nil), b.h.Edges()[:b.h.M()*3/4]...)
	mutate("bulk-delete", bulk)
	// Reconnect.
	mutate("reinsert", bulk)
}

// edgeDelta is the spanner delta between two canonical edge lists.
func edgeDelta(old, cur []graph.Edge) spanner.Delta {
	added, removed := graphtest.DiffEdges(old, cur)
	return spanner.Delta{Added: added, Removed: removed}
}

// The exact table refreshed from each update's spanner delta equals a
// freshly swept table after every step of a 200-update random
// insert/delete sequence.
func TestExactRefreshFromDeltaMatchesFreshEveryStep(t *testing.T) {
	base := gen.ErdosRenyi(36, 0.12, rng.New(41))
	inc := spanner.NewIncremental(base, spanner.IncrementalOptions{Seed: 99})
	b := newExactBackend(inc.H().Snapshot(), 2, nil)
	r := rng.New(43)
	n := int32(base.N())
	for step := 0; step < 200; step++ {
		u, v := int32(r.Intn(int(n))), int32(r.Intn(int(n-1)))
		if v >= u {
			v++
		}
		var (
			applied bool
			d       spanner.Delta
			err     error
		)
		if inc.Graph().HasEdge(u, v) {
			applied, d, err = inc.Delete(u, v)
		} else {
			applied, d, err = inc.Insert(u, v)
		}
		if err != nil || !applied {
			t.Fatalf("step %d: applied=%v err=%v", step, applied, err)
		}
		b.refresh(inc.H().Snapshot(), d)
		want := newExactBackend(b.h, 1, nil)
		for x := int32(0); x < n; x++ {
			for y := x + 1; y < n; y++ {
				if got, exp := b.tri.At(x, y), want.tri.At(x, y); got != exp {
					t.Fatalf("step %d (delta +%v -%v): tri(%d,%d) = %d, fresh sweep has %d",
						step, d.Added, d.Removed, x, y, got, exp)
				}
			}
		}
	}
}

// Landmark refresh must rebuild the table to what a fresh build on the
// new spanner produces (byte-identical, same count and seed) and empty
// the result cache.
func TestLandmarkRefreshRebuildsTableAndFlushesCache(t *testing.T) {
	h0 := gen.ErdosRenyi(64, 0.07, rng.New(9))
	opts := Options{Seed: 17, Landmarks: 8}
	b := newLandmarkBackend(h0, opts, 2, nil)
	for v := int32(1); v < 20; v++ {
		b.Dist(0, v) // populate the cache
	}
	cached := 0
	for i := range b.cache.shards {
		cached += len(b.cache.shards[i].m)
	}
	if cached == 0 {
		t.Fatal("warm-up queries cached nothing")
	}
	h1 := graph.FromEdges(64, append(h0.Edges(), graph.Edge{U: 0, V: 63}))
	b.refresh(h1, edgeDelta(h0.Edges(), h1.Edges()))
	fresh := newLandmarkBackend(h1, opts, 2, nil)
	got, want := b.lm.Bytes(), fresh.lm.Bytes()
	if string(got) != string(want) {
		t.Fatal("refreshed landmark table differs from a fresh build")
	}
	for i := range b.cache.shards {
		s := &b.cache.shards[i]
		if len(s.m) != 0 || s.used != 0 || s.head != -1 || s.tail != -1 {
			t.Fatalf("shard %d not flushed: %d entries, used=%d", i, len(s.m), s.used)
		}
	}
}

// Sparse-hub refresh rebuilds hubs and bunches in place to exactly the
// structures a fresh build would hold.
func TestSparseRefreshMatchesFreshBuild(t *testing.T) {
	h0 := gen.ErdosRenyi(56, 0.08, rng.New(13))
	opts := Options{Seed: 23, SparseHubs: 7}
	b := newSparseBackend(h0, opts, 2, nil)
	edges := h0.Edges()
	h1 := graph.FromEdges(56, append(edges[:len(edges)-3:len(edges)-3], graph.Edge{U: 2, V: 55}))
	b.refresh(h1, edgeDelta(h0.Edges(), h1.Edges()))
	fresh := newSparseBackend(h1, opts, 2, nil)
	if string(b.hubs.Bytes()) != string(fresh.hubs.Bytes()) {
		t.Fatal("refreshed hub table differs from a fresh build")
	}
	eq32 := func(a, c []int32) bool {
		if len(a) != len(c) {
			return false
		}
		for i := range a {
			if a[i] != c[i] {
				return false
			}
		}
		return true
	}
	if !eq32(b.bunchOff, fresh.bunchOff) || !eq32(b.bunchW, fresh.bunchW) || !eq32(b.bunchD, fresh.bunchD) {
		t.Fatal("refreshed bunch CSR differs from a fresh build")
	}
}

// No-op updates must leave the engine untouched and out-of-range ones
// must error without mutating anything.
func TestDynamicNoOpAndInvalidUpdates(t *testing.T) {
	base := gen.Cycle(16)
	d, err := NewDynamic(base, DynamicOptions{Oracle: Options{Backend: BackendExactCached}})
	if err != nil {
		t.Fatal(err)
	}
	before := d.Snapshot(false)
	res, err := d.Update(0, 1, true) // edge already present
	if err != nil || res.Applied {
		t.Fatalf("inserting a present edge: %+v err=%v", res, err)
	}
	if _, err := d.Update(0, 16, true); err == nil {
		t.Fatal("out-of-range update accepted")
	}
	after := d.Snapshot(false)
	if before != after {
		t.Fatalf("no-op updates changed the snapshot: %+v -> %+v", before, after)
	}
	if after.Seq != 0 {
		t.Fatalf("Seq advanced to %d on no-ops", after.Seq)
	}
}

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/*.golden from the current output")

// timingValue matches the samples of the update-latency histogram whose
// values are wall-clock dependent: finite buckets and the sum.
var timingValue = regexp.MustCompile(`^(oracle_update_latency_seconds_(bucket\{[^}]*le="[^+][^"]*"\}|sum\{[^}]*\})) .*$`)

// The update metrics' exposition is pinned by a golden file: family
// names, help text, label values, bucket bounds, and every value that
// does not depend on timing. The sequence exercises both outcomes:
// local repairs and no-ops (a present edge inserted, an absent one
// deleted).
func TestDynamicUpdateMetricsGolden(t *testing.T) {
	reg := obs.NewRegistry()
	d, err := NewDynamic(gen.Cycle(16), DynamicOptions{
		Spanner: spanner.IncrementalOptions{Seed: 5},
		Oracle:  Options{Backend: BackendExactCached, SampleEvery: -1, Registry: reg},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, up := range []struct {
		u, v int32
		add  bool
	}{{0, 8, true}, {0, 1, true}, {3, 11, true}, {0, 8, false}, {5, 9, false}} {
		if _, err := d.Update(up.u, up.v, up.add); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, line := range strings.Split(buf.String(), "\n") {
		name := strings.TrimPrefix(strings.TrimPrefix(line, "# HELP "), "# TYPE ")
		if !strings.HasPrefix(name, "oracle_update") && !strings.HasPrefix(name, "oracle_spanner_") {
			continue
		}
		got.WriteString(timingValue.ReplaceAllString(line, "$1 <timing>") + "\n")
	}
	const path = "testdata/update_metrics.golden"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("update metrics exposition drifted from %s (rerun with -update-golden after an intended change):\n%s", path, got.String())
	}
}

// The realized-stretch sampler reads the live graph under the engine's
// read lock while updates mutate it under the write lock: queries from
// several goroutines, each one sampled, race an updater (run under
// -race), and every sample stays within the certified stretch.
func TestDynamicLiveStretchSamplingUnderUpdates(t *testing.T) {
	d, err := NewDynamic(gen.ErdosRenyi(48, 0.1, rng.New(61)), DynamicOptions{
		Spanner: spanner.IncrementalOptions{Seed: 62},
		Oracle:  Options{Backend: BackendExactCached, SampleEvery: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rng.New(uint64(70 + g))
			for i := 0; i < 300; i++ {
				if _, err := d.Dist(int32(r.Intn(48)), int32(r.Intn(48))); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	r := rng.New(69)
	for i := 0; i < 100; i++ {
		u, v := int32(r.Intn(48)), int32(r.Intn(48))
		if u == v {
			continue
		}
		if _, err := d.Update(u, v, r.Bernoulli(0.5)); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	s := d.Stats()
	if s.StretchSamples == 0 || s.RealizedAlpha > spanner.IncrementalAlpha {
		t.Fatalf("stretch samples=%d realized alpha=%.2f (certified %d)", s.StretchSamples, s.RealizedAlpha, spanner.IncrementalAlpha)
	}
}
