package spanner

import (
	"math"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/rng"
)

// StretchReport summarizes a distance-stretch verification.
type StretchReport struct {
	Checked     int
	MaxStretch  float64
	Violations  int // pairs exceeding the asserted bound
	MeanStretch float64
}

// VerifyOptions parameterizes the stretch-verification kernels.
//
// Determinism contract: for a fixed graph pair (and, for the pair sweep, a
// fixed RNG state), the report is byte-identical for every Workers value —
// all randomness is consumed serially before the parallel sweep starts,
// and each parallel unit writes only its own result slot.
type VerifyOptions struct {
	// Workers is the size of the BFS worker pool; 0 means graph.Workers()
	// (GOMAXPROCS). 1 runs the sweep inline with no goroutines.
	Workers int
	// Trace, when non-nil, receives one child span per sweep with the
	// worker count and sweep size as payload. Nil disables tracing.
	Trace *obs.Span
}

// VerifyEdgeStretch checks the per-edge distance stretch with default
// options (all cores, no tracing). See VerifyEdgeStretchOpts.
func VerifyEdgeStretch(g, h *graph.Graph, alpha int) StretchReport {
	return VerifyEdgeStretchOpts(g, h, alpha, VerifyOptions{})
}

// VerifyEdgeStretchOpts checks the per-edge distance stretch of h versus
// g: for every edge (u,v) of G, dist_H(u,v) must be at most alpha. Because
// replacing each edge of any path by its detour multiplies lengths by at
// most the per-edge stretch (Lemma 1's argument), this certifies h as an
// alpha-distance spanner.
//
// G's edge list is sorted by (U, V), so edges sharing a source form
// contiguous runs; the sweep runs one full BFS on h per distinct source
// through the multi-source kernel (bit-parallel on dense spanners, scalar
// otherwise) and reads every edge of the run out of that row. The per-edge
// values are identical to the old per-edge bounded-BFS kernel — the full
// spanner distance, +Inf when disconnected — and the reduction consumes
// them in edge order, so reports are byte-identical at any worker count
// and across kernels.
func VerifyEdgeStretchOpts(g, h *graph.Graph, alpha int, opt VerifyOptions) StretchReport {
	m := g.M()
	sp := opt.Trace.Start("edge-stretch-sweep")
	defer sp.End()
	sp.SetKV("edges", m)
	sp.SetKV("workers", graph.WorkersFor(opt.Workers, m))
	edges := g.Edges()
	stretch := make([]float64, m)
	srcs := make([]int32, 0, 64)
	starts := make([]int, 0, 64)
	for i := 0; i < m; i++ {
		if i == 0 || edges[i].U != edges[i-1].U {
			srcs = append(srcs, edges[i].U)
			starts = append(starts, i)
		}
	}
	starts = append(starts, m)
	h.MultiSourceBFSSweep(srcs, opt.Workers, func(i int, src int32, dist []int32) {
		for j := starts[i]; j < starts[i+1]; j++ {
			if d := dist[edges[j].V]; d == graph.Unreachable {
				stretch[j] = math.Inf(1)
			} else {
				stretch[j] = float64(d)
			}
		}
	})
	rep := reduceStretch(stretch, float64(alpha))
	sp.SetKV("violations", rep.Violations)
	return rep
}

// VerifyPairStretch samples `pairs` random vertex pairs with default
// options. See VerifyPairStretchOpts.
func VerifyPairStretch(g, h *graph.Graph, pairs int, r *rng.RNG) StretchReport {
	return VerifyPairStretchOpts(g, h, pairs, r, VerifyOptions{})
}

// VerifyPairStretchOpts samples vertex pairs and measures dist_H / dist_G,
// certifying the end-to-end distance stretch on sampled pairs (full
// all-pairs verification is quadratic; edges are the binding case anyway
// by Lemma 1).
//
// The sample is drawn without replacement — `pairs` distinct unordered
// pairs, clamped to C(n, 2) when the request exceeds the pair space — and
// it is drawn serially from r before the parallel sweep begins, so the
// sampled set (and therefore the whole report) is identical for every
// opt.Workers value at a fixed RNG state. Report.Checked is the number of
// distinct pairs actually measured.
func VerifyPairStretchOpts(g, h *graph.Graph, pairs int, r *rng.RNG, opt VerifyOptions) StretchReport {
	n := g.N()
	if total := int64(n) * int64(n-1) / 2; int64(pairs) > total {
		pairs = int(total)
	}
	// The sample is the first (and only) RNG draw: it must happen before
	// any sweep so the pair set is a pure function of the RNG state.
	ps := r.SamplePairs(n, pairs)
	sp := opt.Trace.Start("pair-stretch-sweep")
	defer sp.End()
	sp.SetKV("pairs", pairs)
	sp.SetKV("workers", graph.WorkersFor(opt.Workers, pairs))
	// Bucket pair indices by first endpoint (counting sort) so one BFS row
	// per distinct anchor serves every pair anchored there — on g and h
	// alike, since both sweeps share the grouping.
	cnt := make([]int32, n)
	for _, p := range ps {
		cnt[p[0]]++
	}
	srcs := make([]int32, 0, 64)
	for v := 0; v < n; v++ {
		if cnt[v] > 0 {
			srcs = append(srcs, int32(v))
		}
	}
	rowOf := make([]int32, n)
	off := make([]int32, len(srcs)+1)
	for i, s := range srcs {
		rowOf[s] = int32(i)
		off[i+1] = off[i] + cnt[s]
	}
	pos := append([]int32(nil), off[:len(srcs)]...)
	order := make([]int32, len(ps))
	for i, p := range ps {
		ri := rowOf[p[0]]
		order[pos[ri]] = int32(i)
		pos[ri]++
	}
	dg := make([]int32, len(ps))
	dh := make([]int32, len(ps))
	fill := func(dst []int32) func(i int, src int32, dist []int32) {
		return func(i int, src int32, dist []int32) {
			for _, pi := range order[off[i]:off[i+1]] {
				dst[pi] = dist[ps[pi][1]]
			}
		}
	}
	g.MultiSourceBFSSweep(srcs, opt.Workers, fill(dg))
	h.MultiSourceBFSSweep(srcs, opt.Workers, fill(dh))
	stretch := make([]float64, len(ps))
	for i := range ps {
		switch {
		case dg[i] == graph.Unreachable && dh[i] == graph.Unreachable:
			stretch[i] = 1
		case dh[i] == graph.Unreachable:
			stretch[i] = math.Inf(1)
		case dg[i] == 0:
			stretch[i] = 1
		default:
			stretch[i] = float64(dh[i]) / float64(dg[i])
		}
	}
	return reduceStretch(stretch, math.Inf(1))
}

// reduceStretch folds a per-unit stretch slice into a report; values above
// bound count as violations. The reduction is serial and
// order-independent, so it closes the determinism argument for the
// parallel sweeps.
func reduceStretch(stretch []float64, bound float64) StretchReport {
	rep := StretchReport{Checked: len(stretch)}
	total := 0.0
	for _, s := range stretch {
		if s > rep.MaxStretch {
			rep.MaxStretch = s
		}
		if s > bound {
			rep.Violations++
		}
		total += s
	}
	if len(stretch) > 0 {
		rep.MeanStretch = total / float64(len(stretch))
	}
	return rep
}
