package routing

import "repro/internal/graph"

// NodeCongestionProfile returns, for each vertex of an n-vertex graph, the
// number of paths of r that use it (C(P, v) in the paper). A path visiting
// a vertex multiple times (non-simple walk) counts once, matching the
// set-membership definition C(P, v) = |{p_i : v ∈ p_i}|. It is
// NodeCongestionProfileWorkers with the default worker count.
func (r *Routing) NodeCongestionProfile(n int) []int {
	return r.NodeCongestionProfileWorkers(n, 0)
}

// NodeCongestionProfileWorkers is the parallel congestion-accounting
// kernel: paths are swept on a pool of `workers` goroutines (0 means
// graph.Workers(), 1 runs inline), each worker accumulating into its own
// counts array, merged by summation afterwards. Because every path
// contributes exactly once per visited vertex and integer addition is
// order-independent, the profile is byte-identical for every worker count
// — the property the experiment harness's determinism tests pin down.
func (r *Routing) NodeCongestionProfileWorkers(n, workers int) []int {
	counts := make([]int, n)
	if len(r.Paths) == 0 {
		return counts
	}
	w := graph.WorkersFor(workers, len(r.Paths))
	if w == 1 {
		countPaths(r.Paths, 0, counts, newStamp(n))
		return counts
	}
	type state struct {
		counts, stamp []int
	}
	perWorker := make([]state, w)
	graph.ParallelRangeWorkers(len(r.Paths), workers, func(wi, lo, hi int) {
		st := &perWorker[wi]
		if st.counts == nil {
			st.counts = make([]int, n)
			st.stamp = newStamp(n)
		}
		countPaths(r.Paths[lo:hi], lo, st.counts, st.stamp)
	})
	for _, st := range perWorker {
		for v, cv := range st.counts {
			counts[v] += cv
		}
	}
	return counts
}

// newStamp allocates a path-id stamp array cleared to -1 (no path id).
func newStamp(n int) []int {
	stamp := make([]int, n)
	for i := range stamp {
		stamp[i] = -1
	}
	return stamp
}

// countPaths adds each path's per-vertex contribution (visits count once
// per path) into counts. base is the global index of paths[0]; stamping
// vertices with the global path id de-duplicates repeat visits within a
// path while letting workers reuse one stamp array across chunks.
func countPaths(paths []Path, base int, counts, stamp []int) {
	for pi, p := range paths {
		id := base + pi
		for _, v := range p {
			if stamp[v] != id {
				stamp[v] = id
				counts[v]++
			}
		}
	}
}

// NodeCongestion returns C(P) = max_v C(P, v).
func (r *Routing) NodeCongestion(n int) int {
	return r.NodeCongestionWorkers(n, 0)
}

// NodeCongestionWorkers returns C(P) computed on a worker pool; see
// NodeCongestionProfileWorkers for the determinism contract.
func (r *Routing) NodeCongestionWorkers(n, workers int) int {
	max := 0
	for _, c := range r.NodeCongestionProfileWorkers(n, workers) {
		if c > max {
			max = c
		}
	}
	return max
}

// EdgeCongestionProfile returns the number of paths using each edge of g
// (in either direction). Edges outside g used by a path are ignored; call
// Validate first if that matters.
func (r *Routing) EdgeCongestionProfile(g *graph.Graph) map[graph.Edge]int {
	counts := make(map[graph.Edge]int)
	for _, p := range r.Paths {
		for i := 1; i < len(p); i++ {
			e := graph.Edge{U: p[i-1], V: p[i]}.Normalize()
			counts[e]++
		}
	}
	return counts
}

// EdgeCongestion returns the maximum per-edge congestion.
func (r *Routing) EdgeCongestion(g *graph.Graph) int {
	max := 0
	for _, c := range r.EdgeCongestionProfile(g) {
		if c > max {
			max = c
		}
	}
	return max
}

// TotalLength returns the sum of path lengths — a secondary quality metric
// used by the experiment harness.
func (r *Routing) TotalLength() int {
	sum := 0
	for _, p := range r.Paths {
		sum += p.Len()
	}
	return sum
}
