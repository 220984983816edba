package check

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/spanner"
)

// checkCensus is Algorithm 1's kernel differential. The codegree-row
// supported-edge census (spanner.SupportedEdgesWorkers) must equal the
// scalar per-edge definition spanner.IsSupported at every worker count
// and every threshold pair, and the mark-based ≤3-hop test
// (BFSScratch.WithinThreeHops) must equal a depth-3 BFS on every vertex
// pair of the graph and of Algorithm 1's sampled graph G'.
//
// The thresholds cover the degenerate pairs (0,0) and (1,1), Algorithm 1's
// defaults, a straddling the graph's median edge codegree with b at and
// just above the median extension count, and b > Δ, where no edge can be
// supported.
func checkCensus(rep *Report, family string, g *graph.Graph, opts Options) {
	if g.M() == 0 {
		return
	}
	res, err := spanner.BuildRegular(g, spanner.DefaultRegularOptions(opts.Seed))
	ck := &checker{rep: rep, family: family, check: "census/build-regular", seed: opts.Seed}
	if !ck.assert(err == nil, "BuildRegular: %v", err) {
		return
	}
	for _, ab := range censusThresholds(g, res.SupportA, res.SupportB) {
		a, b := ab[0], ab[1]
		ref := make([]bool, g.M())
		for i, e := range g.Edges() {
			ref[i] = spanner.IsSupported(g, e, a, b)
		}
		for _, w := range workerCounts {
			ck := &checker{rep: rep, family: family,
				check: fmt.Sprintf("census/a=%d,b=%d/workers=%d", a, b, w), seed: opts.Seed}
			got := spanner.SupportedEdgesWorkers(g, a, b, w)
			for i, e := range g.Edges() {
				if !ck.assert(got[i] == ref[i],
					"edge %v: census says supported=%v, IsSupported says %v", e, got[i], ref[i]) {
					break
				}
			}
		}
	}
	for _, h := range []struct {
		name string
		g    *graph.Graph
	}{{"g", g}, {"gprime", res.GPrime}} {
		ck := &checker{rep: rep, family: family, check: "within-three-hops/" + h.name, seed: opts.Seed}
		s := graph.NewBFSScratch(h.g.N())
		n := int32(h.g.N())
	pairs:
		for u := int32(0); u < n; u++ {
			for v := int32(0); v < n; v++ {
				want := s.DistWithin(h.g, u, v, 3) != graph.Unreachable
				if got := s.WithinThreeHops(h.g, u, v); !ck.assert(got == want,
					"(%d,%d): WithinThreeHops=%v, depth-3 BFS says %v", u, v, got, want) {
					break pairs
				}
			}
		}
	}
}

// censusThresholds returns the (a, b) pairs checkCensus sweeps on g, with
// Algorithm 1's default (a, b) passed in.
func censusThresholds(g *graph.Graph, defA, defB int) [][2]int {
	ts := [][2]int{{0, 0}, {1, 1}, {defA, defB}, {1, g.MaxDegree() + 1}}
	codeg := make([]int, 0, g.M())
	for _, e := range g.Edges() {
		codeg = append(codeg, g.CommonNeighbors(e.U, e.V))
	}
	slices.Sort(codeg)
	med := codeg[len(codeg)/2]
	for a := max(med-1, 0); a <= med+1; a++ {
		ext := make([]int, 0, 2*g.M())
		for _, e := range g.Edges() {
			ext = append(ext, spanner.ExtensionSupport(g, e.U, e.V, a), spanner.ExtensionSupport(g, e.V, e.U, a))
		}
		slices.Sort(ext)
		b := ext[len(ext)/2]
		ts = append(ts, [2]int{a, b}, [2]int{a, b + 1})
	}
	slices.SortFunc(ts, func(x, y [2]int) int {
		return cmp.Or(cmp.Compare(x[0], y[0]), cmp.Compare(x[1], y[1]))
	})
	return slices.Compact(ts)
}
