package oracle

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// The bulk multi-source sweep must be answer-for-answer identical to the
// per-query path: same Dist, Bound, Exact, and sentinel handling for
// invalid queries. The batch mixes duplicates, self queries, both invalid
// shapes, and enough source sharing to trip the bulk gate.
func TestAnswerBulkMatchesPerQueryPath(t *testing.T) {
	dc := buildTestSpanner(t, 128, 32, 13)
	mk := func(workers int) *Oracle {
		o, err := New(dc, Options{Landmarks: 6, Workers: workers, CacheSize: -1, SampleEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	n := dc.Graph().N()
	r := rng.New(5)
	qs := make([]Query, 0, 600)
	for i := 0; i < 560; i++ {
		// ~32 distinct sources so valid >= 2*sources comfortably holds.
		qs = append(qs, Query{U: int32(r.Intn(32)), V: int32(r.Intn(n))})
	}
	qs = append(qs,
		Query{U: 3, V: 3},            // self
		Query{U: -1, V: 5},           // invalid low
		Query{U: 5, V: int32(n)},     // invalid high
		Query{U: 9, V: 9},            // self again
		Query{U: int32(n - 1), V: 0}, // unique source
		Query{U: int32(n - 1), V: 0}, // duplicate query
	)

	// Ground truth: per-query answers on a fresh oracle (batch below the
	// bulk threshold takes the per-query path by construction).
	ref := mk(1)
	want := make([]Answer, len(qs))
	for i, q := range qs {
		a, _, err := ref.answer(q.U, q.V)
		if err != nil {
			a = Answer{U: q.U, V: q.V, Dist: graph.Unreachable, Bound: graph.Unreachable}
		}
		want[i] = a
	}

	for _, workers := range []int{1, 2, 8} {
		o := mk(workers)
		out := o.AnswerBatch(qs)
		if len(out) != len(qs) {
			t.Fatalf("workers=%d: %d answers for %d queries", workers, len(out), len(qs))
		}
		for i := range out {
			if out[i] != want[i] {
				t.Fatalf("workers=%d: answer %d = %+v, per-query path says %+v",
					workers, i, out[i], want[i])
			}
		}
		// The batch must actually have gone through the bulk path: every
		// valid non-self query lands in the bulk counter, none in the
		// per-query resolution counters.
		snap := o.Registry().Snapshot()
		validNonSelf := int64(0)
		for _, q := range qs {
			if q.U >= 0 && q.V >= 0 && int(q.U) < n && int(q.V) < n && q.U != q.V {
				validNonSelf++
			}
		}
		if got := snap.Counters[backendKey(metricPathBulk, BackendLandmarkBiBFS)]; got != validNonSelf {
			t.Fatalf("workers=%d: bulk counter %d, want %d", workers, got, validNonSelf)
		}
		if snap.Counters[backendKey(metricPathBiBFS, BackendLandmarkBiBFS)] != 0 ||
			snap.Counters[backendKey(metricPathCacheHit, BackendLandmarkBiBFS)] != 0 {
			t.Fatalf("workers=%d: bulk batch leaked into per-query path counters", workers)
		}
	}
}
