package graph

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Workers returns the degree of parallelism used by the Parallel* helpers
// when the caller does not pick one explicitly: GOMAXPROCS, floored at 1.
func Workers() int {
	w := runtime.GOMAXPROCS(0)
	if w < 1 {
		w = 1
	}
	return w
}

// WorkersFor resolves a caller-supplied worker count the way
// ParallelRangeWorkers does: values <= 0 mean Workers(), and the pool
// never exceeds the number of work items. Callers size per-worker
// scratch with it.
func WorkersFor(workers, items int) int {
	if workers <= 0 {
		workers = Workers()
	}
	if workers > items {
		workers = items
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// ParallelRangeWorkers is the repository's one worker pool. It processes
// [0, n) on exactly WorkersFor(workers, n) goroutines (0 means Workers()),
// handing out work in small dynamically claimed chunks, so uneven
// per-item cost (a BFS that terminates early, a cache hit) does not
// straggle the pool. It passes the worker index w in [0, workers) to fn
// so each worker can own reusable scratch (a BFSScratch, a distance
// buffer) across all chunks it claims.
//
// Determinism contract: which worker processes which index is
// schedule-dependent, so fn must write results only into per-index slots
// (out[i] = ...) or into per-worker accumulators that are merged
// order-independently afterwards. Under that discipline the result is
// byte-identical for every worker count, including workers == 1, which
// runs fn(0, 0, n) inline with no goroutines at all.
//
// Panics: a panic in fn on a pool goroutine stops the hand-out of further
// chunks and, once every worker has returned, is re-raised on the
// caller's goroutine with the worker's stack attached, so a caller's
// recover sees it exactly as it would at workers == 1. When several
// workers panic, the first one recovered wins.
func ParallelRangeWorkers(n, workers int, fn func(w, lo, hi int)) {
	if n <= 0 {
		return
	}
	workers = WorkersFor(workers, n)
	if workers == 1 {
		fn(0, 0, n)
		return
	}
	// Chunks are sized so each worker claims ~8 of them on average: small
	// enough to balance variable per-item cost, large enough that the
	// atomic claim is negligible against any non-trivial fn.
	chunk := max(n/(8*workers), 1)
	var next atomic.Int64
	var relay PanicRelay
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			defer relay.Catch()
			for {
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= n || relay.Caught() {
					return
				}
				fn(w, lo, min(lo+chunk, n))
			}
		}(w)
	}
	wg.Wait()
	relay.Reraise()
}

// PanicRelay carries the first panic of a group of goroutines to the
// goroutine that waits for them. Each goroutine defers Catch; after the
// group's Wait the waiter calls Reraise, so a panic reaches the waiter's
// recover as it would had the work run inline. ParallelRangeWorkers and
// the router's per-chunk fan-out both use it. The zero value is ready.
type PanicRelay struct {
	first atomic.Pointer[WorkerPanic]
}

// Catch recovers a panic on the calling goroutine and keeps it if it is
// the group's first. It must be deferred directly: defer relay.Catch().
func (r *PanicRelay) Catch() {
	if v := recover(); v != nil {
		r.first.CompareAndSwap(nil, &WorkerPanic{Value: v, Stack: debug.Stack()})
	}
}

// Caught reports whether some goroutine of the group has panicked, so
// the others can stop taking work.
func (r *PanicRelay) Caught() bool { return r.first.Load() != nil }

// Reraise panics with the first caught *WorkerPanic, if there is one.
// Call it once every goroutine of the group has returned.
func (r *PanicRelay) Reraise() {
	if p := r.first.Load(); p != nil {
		panic(p)
	}
}

// WorkerPanic is the value PanicRelay re-raises: the goroutine's original
// panic value plus the stack it panicked on, which the waiter's own stack
// trace would otherwise lose.
type WorkerPanic struct {
	Value any
	Stack []byte
}

func (p *WorkerPanic) Error() string {
	return fmt.Sprintf("%v\n\nworker goroutine stack:\n%s", p.Value, p.Stack)
}

// BFSScratch holds reusable per-worker BFS state so bulk multi-source
// distance computations do not reallocate O(n) slices per source.
type BFSScratch struct {
	dist  []int32
	queue []int32
	stamp []int32 // generation tags: dist[v] valid iff stamp[v] == gen
	gen   int32
}

// NewBFSScratch allocates scratch for graphs with n vertices.
func NewBFSScratch(n int) *BFSScratch {
	return &BFSScratch{
		dist:  make([]int32, n),
		queue: make([]int32, 0, 64),
		stamp: make([]int32, n),
		gen:   0,
	}
}

// nextGen starts a new stamp generation, invalidating every stamp of the
// previous search in O(1) (O(n) once per 2³² searches, on wrap).
func (s *BFSScratch) nextGen() {
	s.gen++
	if s.gen == 0 {
		for i := range s.stamp {
			s.stamp[i] = 0
		}
		s.gen = 1
	}
}

// WithinThreeHops reports whether dist_g(u, v) <= 3, exactly as
// DistWithin(g, u, v, 3) != Unreachable does, without a BFS: it stamps
// N(v), then looks for v itself or a stamped vertex among N(u) (distance
// 1 or 2) and for a stamped vertex among N(x), x ∈ N(u) (distance 3).
// That is O(deg(v) + Σ_{x∈N(u)} deg(x)) per call, against a BFS that
// enumerates the whole radius-2 ball around u. It is the 3-detour
// existence test of Algorithm 1's reinsertion phase.
func (s *BFSScratch) WithinThreeHops(g *Graph, u, v int32) bool {
	if u == v {
		return true
	}
	s.nextGen()
	for _, y := range g.Neighbors(v) {
		s.stamp[y] = s.gen
	}
	nu := g.Neighbors(u)
	for _, x := range nu {
		if x == v || s.stamp[x] == s.gen {
			return true
		}
	}
	for _, x := range nu {
		for _, y := range g.Neighbors(x) {
			if s.stamp[y] == s.gen {
				return true
			}
		}
	}
	return false
}

// DistWithin is g.DistWithin using the scratch space (no allocation after
// warm-up). limit < 0 means unlimited.
func (s *BFSScratch) DistWithin(g *Graph, u, v, limit int32) int32 {
	if u == v {
		return 0
	}
	s.nextGen()
	s.queue = s.queue[:0]
	s.queue = append(s.queue, u)
	s.dist[u] = 0
	s.stamp[u] = s.gen
	for head := 0; head < len(s.queue); head++ {
		x := s.queue[head]
		dx := s.dist[x]
		if limit >= 0 && dx >= limit {
			break
		}
		for _, w := range g.Neighbors(x) {
			if s.stamp[w] == s.gen {
				continue
			}
			s.stamp[w] = s.gen
			s.dist[w] = dx + 1
			if w == v {
				return dx + 1
			}
			s.queue = append(s.queue, w)
		}
	}
	return Unreachable
}

// PathWithin returns a shortest u–v path of length at most limit using the
// scratch space, or nil if none exists; limit < 0 means unlimited. Unlike
// DistWithin it records parents while searching, and it stops the moment v
// is discovered: BFS discovers v first at its true distance, and every
// parent on the chain back to u was finalized at an earlier level, so the
// reconstruction needs nothing from the rest of v's level.
func (s *BFSScratch) PathWithin(g *Graph, u, v, limit int32, parent []int32) []int32 {
	if u == v {
		return []int32{u}
	}
	s.nextGen()
	s.queue = s.queue[:0]
	s.queue = append(s.queue, u)
	s.dist[u] = 0
	s.stamp[u] = s.gen
	parent[u] = u
	found := false
	for head := 0; head < len(s.queue) && !found; head++ {
		x := s.queue[head]
		dx := s.dist[x]
		if limit >= 0 && dx >= limit {
			break
		}
		for _, w := range g.Neighbors(x) {
			if s.stamp[w] == s.gen {
				continue
			}
			s.stamp[w] = s.gen
			s.dist[w] = dx + 1
			parent[w] = x
			if w == v {
				found = true
				break
			}
			s.queue = append(s.queue, w)
		}
	}
	if !found {
		return nil
	}
	// Size by the found distance, not the limit: limit may be -1 (or any
	// negative "unlimited" value, for which limit+1 would be a negative
	// capacity and panic) and is only an upper bound anyway.
	path := make([]int32, 0, s.dist[v]+1)
	for x := v; ; x = parent[x] {
		path = append(path, x)
		if x == u {
			break
		}
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

// BFSFrom fills dist (which must have length g.N()) with hop distances
// from src, reusing the scratch queue across calls. Unreachable vertices
// get Unreachable. It is the full-sweep sibling of DistWithin for bulk
// multi-source workloads: the only per-call allocation is none after the
// queue warms up.
func (s *BFSScratch) BFSFrom(g *Graph, src int32, dist []int32) {
	for i := range dist {
		dist[i] = Unreachable
	}
	s.queue = s.queue[:0]
	s.queue = append(s.queue, src)
	dist[src] = 0
	for head := 0; head < len(s.queue); head++ {
		v := s.queue[head]
		dv := dist[v]
		for _, w := range g.Neighbors(v) {
			if dist[w] == Unreachable {
				dist[w] = dv + 1
				s.queue = append(s.queue, w)
			}
		}
	}
}

// ParallelBFSFrom computes BFS distances from every source on a pool of
// `workers` goroutines (0 means Workers()) and returns the flat distance
// table, row-aligned with sources: out.Row(i) equals g.BFS(sources[i])
// element for element. It is the scalar multi-source kernel — one plain
// BFS per source with per-worker reusable queues — kept both as the
// sparse-graph arm of MultiSourceBFSFrom and as the differential
// reference the bit-parallel kernel is checked against in dccheck.
//
// The result is deterministic — byte-identical for every worker count at
// a fixed input — because each source's BFS is independent and lands in
// its own row.
func (g *Graph) ParallelBFSFrom(sources []int32, workers int) *FlatDist {
	out := NewFlatDist(len(sources), g.n)
	scratch := make([]*BFSScratch, WorkersFor(workers, len(sources)))
	ParallelRangeWorkers(len(sources), workers, func(w, lo, hi int) {
		s := scratch[w]
		if s == nil {
			s = NewBFSScratch(g.n)
			scratch[w] = s
		}
		for i := lo; i < hi; i++ {
			s.BFSFrom(g, sources[i], out.Row(i))
		}
	})
	return out
}

// ParallelBFSSweep runs a BFS from every source on a pool of `workers`
// goroutines and streams each completed distance slice to visit(i, src,
// dist), where i is the source's index. The dist slice is per-worker
// scratch reused for the next source: visit must not retain it, and must
// be safe to call concurrently for distinct indices (it is never called
// concurrently for the same index). Use this instead of ParallelBFSFrom
// when the sweep reduces each BFS to a few numbers (an eccentricity, a
// stretch maximum) and holding len(sources) full distance slices would
// be wasteful.
func (g *Graph) ParallelBFSSweep(sources []int32, workers int, visit func(i int, src int32, dist []int32)) {
	type state struct {
		scratch *BFSScratch
		dist    []int32
	}
	states := make([]state, WorkersFor(workers, len(sources)))
	ParallelRangeWorkers(len(sources), workers, func(w, lo, hi int) {
		st := &states[w]
		if st.scratch == nil {
			st.scratch = NewBFSScratch(g.n)
			st.dist = make([]int32, g.n)
		}
		for i := lo; i < hi; i++ {
			st.scratch.BFSFrom(g, sources[i], st.dist)
			visit(i, sources[i], st.dist)
		}
	})
}
