package oracle

import (
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/spanner"
)

// exactBackend answers every query from a precomputed all-pairs distance
// table over the spanner: a triangular n(n−1)/2 int32 matrix built by
// one multi-source BFS sweep at construction time. Space is O(n²) —
// ~4·n²/2 bytes, which is why the tuner gates it on the memory budget —
// but queries are a single O(1) table load and every answer is exact on
// H (declared stretch bound 1). It is the backend of choice for small
// graphs, where the table fits comfortably and beats both the cache
// probe and the bidirectional search.
type exactBackend struct {
	h       *graph.Graph
	tri     *graph.TriDist
	workers int

	pathExact atomic.Int64
}

// newExactBackend BFS-labels the whole graph. The sweep writes each
// row's upper-triangle slots only — distinct slots across rows — so the
// build is race-free and deterministic at any worker count.
func newExactBackend(h *graph.Graph, workers int, trace *obs.Span) *exactBackend {
	sp := trace.Start("exact-table")
	n := h.N()
	b := &exactBackend{h: h, tri: graph.NewTriDist(n), workers: workers}
	b.fillAll()
	sp.SetKV("entries", n*(n-1)/2)
	sp.End()
	return b
}

// fillAll recomputes the whole table by one multi-source sweep over every
// vertex (each row writes its upper-triangle slots only — disjoint across
// rows, so race-free at any worker count).
func (b *exactBackend) fillAll() {
	n := b.h.N()
	srcs := make([]int32, n)
	for i := range srcs {
		srcs[i] = int32(i)
	}
	b.h.MultiSourceBFSSweep(srcs, b.workers, func(i int, src int32, dist []int32) {
		for v := src + 1; v < int32(n); v++ {
			b.tri.Set(src, v, dist[v])
		}
	})
}

// Name implements Backend.
func (b *exactBackend) Name() string { return BackendExactCached }

// StretchBound implements Backend: every answer is the exact spanner
// distance.
func (b *exactBackend) StretchBound() int { return 1 }

// MemoryBytes implements Backend: the triangular table.
func (b *exactBackend) MemoryBytes() int64 { return exactMemoryEstimate(b.h.N()) }

// exactMemoryEstimate is the table size for an n-vertex graph — usable
// before building, which is how the tuner skips the backend outright on
// graphs whose table cannot fit the budget.
func exactMemoryEstimate(n int) int64 {
	return 4 * int64(n) * int64(n-1) / 2
}

// Dist implements Backend: one table load. The table is exact, so the
// admissible upper bound equals the distance.
func (b *exactBackend) Dist(u, v int32) (Answer, uint8) {
	b.pathExact.Add(1)
	d := b.tri.At(u, v)
	return Answer{U: u, V: v, Dist: d, Bound: d, Exact: true}, obs.PathExact
}

// AnswerBatch implements Backend: the whole batch is table loads, so it
// always handles, filling valid non-self slots in parallel (each worker
// owns a contiguous index range — disjoint slots, deterministic output).
func (b *exactBackend) AnswerBatch(qs []Query, out []Answer) (uint8, bool) {
	n := int32(b.h.N())
	var served atomic.Int64
	graph.ParallelRangeWorkers(len(qs), b.workers, func(w, lo, hi int) {
		local := int64(0)
		for i := lo; i < hi; i++ {
			q := qs[i]
			if q.U < 0 || q.V < 0 || q.U >= n || q.V >= n || q.U == q.V {
				continue // the Oracle's accounting loop fills these slots
			}
			d := b.tri.At(q.U, q.V)
			out[i] = Answer{U: q.U, V: q.V, Dist: d, Bound: d, Exact: true}
			local++
		}
		served.Add(local)
	})
	b.pathExact.Add(served.Load())
	return obs.PathExact, true
}

// refresh implements Backend: patch the distance table in place from
// the spanner delta instead of resweeping every source.
//
//   - Insertions apply the one-edge relaxation (patchInsert) — exact for
//     a single inserted edge, and exact for several when applied one
//     edge at a time.
//   - Deletions then rewrite only affected rows: a source x whose
//     distances can change must have some removed edge {a,b} tight from
//     it (|d(x,a)−d(x,b)| = 1) on the pre-removal graph, so every other
//     row is already correct. When more than half the rows are affected a
//     full sweep is cheaper, so refresh falls back to fillAll.
//
// The delta is the spanner's own net change (not the base-graph update,
// whose spanner footprint can be several edges), so the rule stays
// exact no matter what the maintenance layer did upstream.
func (b *exactBackend) refresh(h *graph.Graph, d spanner.Delta) {
	b.h = h
	n := int32(h.N())
	for _, e := range d.Added {
		b.patchInsert(e.U, e.V)
	}
	if len(d.Removed) == 0 {
		return
	}
	// After the insertion patches the table is exact for h plus the
	// removed edges — exactly the graph the tightness criterion needs.
	affected := make([]bool, n)
	count := 0
	for _, e := range d.Removed {
		for x := int32(0); x < n; x++ {
			if affected[x] {
				continue
			}
			da, db := b.tri.At(x, e.U), b.tri.At(x, e.V)
			if da == graph.Unreachable || db == graph.Unreachable {
				continue
			}
			if da-db == 1 || db-da == 1 {
				affected[x] = true
				count++
			}
		}
	}
	if count == 0 {
		return
	}
	if int32(count) > n/2 {
		b.fillAll()
		return
	}
	srcs := make([]int32, 0, count)
	for x := int32(0); x < n; x++ {
		if affected[x] {
			srcs = append(srcs, x)
		}
	}
	// Rewrite each affected row. A pair with both endpoints affected is
	// owned by its smaller-id row, so no two rows write the same slot and
	// the sweep stays race-free at any worker count.
	b.h.MultiSourceBFSSweep(srcs, b.workers, func(i int, src int32, dist []int32) {
		for v := int32(0); v < n; v++ {
			if v == src || (affected[v] && v < src) {
				continue
			}
			b.tri.Set(src, v, dist[v])
		}
	})
}

// patchInsert relaxes the table through the newly inserted spanner edge
// {a, c}. A pair {x, y} can only shorten through the edge as
// x ⇝ a – c ⇝ y with d(x,a)+1+d(c,y) < d(x,y). The old distance is at
// most d(x,c)+d(c,y) and at most d(x,a)+d(a,y), so that forces
// d(x,a)+1 < d(x,c) — x is in near — and d(c,y)+1 < d(y,a) — y is in
// far. Relaxing only near × far is therefore exact, and it is a small
// product: on a spanner the edge's endpoints sit within distance 3, so
// few vertices are two or more hops closer to one than to the other.
// Unreachable counts as infinitely far.
func (b *exactBackend) patchInsert(a, c int32) {
	n := int32(b.h.N())
	type side struct{ v, d int32 } // vertex and its distance to a (near) or c (far)
	var near, far []side
	closer := func(dx, dy int32) bool { // dx+1 < dy with Unreachable as ∞
		return dx != graph.Unreachable && (dy == graph.Unreachable || dx+1 < dy)
	}
	for x := int32(0); x < n; x++ {
		xa, xc := b.tri.At(x, a), b.tri.At(x, c)
		switch {
		case closer(xa, xc):
			near = append(near, side{x, xa})
		case closer(xc, xa):
			far = append(far, side{x, xc})
		}
	}
	for _, x := range near {
		for _, y := range far {
			d := x.d + 1 + y.d
			if old := b.tri.At(x.v, y.v); old == graph.Unreachable || d < old {
				b.tri.Set(x.v, y.v, d)
			}
		}
	}
}

// Stats implements Backend.
func (b *exactBackend) Stats() BackendStats {
	return BackendStats{
		Name:         b.Name(),
		StretchBound: b.StretchBound(),
		MemoryBytes:  b.MemoryBytes(),
		Counters: map[string]int64{
			"path_exact": b.pathExact.Load(),
		},
	}
}

// attachMetrics implements Backend.
func (b *exactBackend) attachMetrics(reg *obs.Registry) {
	reg.CounterFuncLabeled(metricPathExact, "Resolutions served from the precomputed all-pairs table.",
		"backend", b.Name(), b.pathExact.Load)
}
