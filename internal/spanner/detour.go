// Package spanner implements the paper's spanner constructions and the
// baselines they are compared against:
//
//   - BuildExpander — Theorem 2: 3-distance-stretch DC-spanner for
//     spectral expanders via independent edge sampling and random 3-hop
//     replacement paths across neighborhood matchings.
//   - BuildRegular — Algorithm 1 / Theorem 3: DC-spanner for Δ-regular
//     graphs via sampling with probability Δ'/Δ and reinsertion of edges
//     that are not (a, b)-supported.
//   - BaswanaSen, Greedy — classical distance-spanner baselines.
//   - SparsifyUniform, ExtractBoundedDegree — stand-ins for the [16] and
//     [5] rows of Table 1 (see DESIGN.md, substitutions).
//
// All constructions return a Spanner whose RouteMatching method provides
// the per-matching substitute routing required by Theorem 1 / Algorithm 2.
package spanner

import (
	"slices"

	"repro/internal/graph"
	"repro/internal/rng"
)

// ExtensionSupport counts, for the directed edge (u → v), the number of
// a-supported extensions of (u,v) toward v: neighbors z of v (z ≠ u) such
// that the base {u, z} is (a+1)-supported, i.e. u and z have at least a+1
// common neighbors (v itself being one of them). This is the quantity "b"
// in the paper's (a, b)-supported definition (Section 4, Figures 3–4).
// It is the scalar definition, one common-neighbor merge per z: the LOCAL
// protocol evaluates it edge by edge, and the whole-graph census
// (SupportedEdges) is checked against it.
func ExtensionSupport(g *graph.Graph, u, v int32, a int) int {
	b := 0
	for _, z := range g.Neighbors(v) {
		if z == u {
			continue
		}
		if g.CommonNeighbors(u, z) >= a+1 {
			b++
		}
	}
	return b
}

// IsSupported reports whether edge e is (a, b)-supported toward at least
// one of its endpoints.
func IsSupported(g *graph.Graph, e graph.Edge, a, b int) bool {
	return ExtensionSupport(g, e.U, e.V, a) >= b || ExtensionSupport(g, e.V, e.U, a) >= b
}

// SupportedEdges computes whether each edge of g is (a, b)-supported in
// at least one direction, indexed like g.Edges(): the Ê census of
// Algorithm 1 line 8. It is SupportedEdgesWorkers on all cores.
func SupportedEdges(g *graph.Graph, a, b int) []bool {
	return SupportedEdgesWorkers(g, a, b, 0)
}

// SupportedEdgesWorkers is SupportedEdges on a pool of `workers`
// goroutines (0 means graph.Workers()). Every boolean equals the scalar
// IsSupported; the result is identical for every worker count.
//
// The census runs per source vertex u rather than per edge. One two-hop
// walk from u fills a dense codegree row c[z] = |N(u) ∩ N(z)| for every
// z, after which ext(u → v) for each v ∈ N(u) is a single scan of N(v)
// counting z ≠ u with c[z] ≥ a+1, stopped as soon as it reaches b. A
// second two-hop walk zeroes the row for the next source. Each source
// costs O(Σ_{v∈N(u)} deg v), so the whole census is O(nΔ²), where the
// scalar definition recounts a common-neighbor merge per (u, v, z)
// triple, O(nΔ³). The per-direction results land in per-slot entries of
// the adjacency order and are folded into g.Edges() order afterwards.
func SupportedEdgesWorkers(g *graph.Graph, a, b, workers int) []bool {
	n := g.N()
	// off[u] is the first slot of u's adjacency; dir[off[u]+i] records
	// whether u → Neighbors(u)[i] is (a, b)-supported.
	off := make([]int, n+1)
	for u := 0; u < n; u++ {
		off[u+1] = off[u] + g.Degree(int32(u))
	}
	dir := make([]bool, off[n])
	rows := make([][]int32, graph.WorkersFor(workers, n))
	graph.ParallelRangeWorkers(n, workers, func(w, lo, hi int) {
		if rows[w] == nil {
			rows[w] = make([]int32, n)
		}
		c := rows[w]
		for u := int32(lo); u < int32(hi); u++ {
			nu := g.Neighbors(u)
			for _, x := range nu {
				for _, z := range g.Neighbors(x) {
					c[z]++
				}
			}
			for i, v := range nu {
				dir[off[u]+i] = extensionReaches(g, c, u, v, a, b)
			}
			for _, x := range nu {
				for _, z := range g.Neighbors(x) {
					c[z] = 0
				}
			}
		}
	})
	out := make([]bool, g.M())
	for i, e := range g.Edges() {
		out[i] = dir[slot(g, off, e.U, e.V)] || dir[slot(g, off, e.V, e.U)]
	}
	return out
}

// extensionReaches reports ExtensionSupport(g, u, v, a) >= b given u's
// codegree row c, scanning N(v) only until the count reaches b.
func extensionReaches(g *graph.Graph, c []int32, u, v int32, a, b int) bool {
	count := 0
	for _, z := range g.Neighbors(v) {
		if count >= b {
			break
		}
		if z != u && int(c[z]) >= a+1 {
			count++
		}
	}
	return count >= b
}

// slot returns the adjacency slot of the directed edge u → v.
func slot(g *graph.Graph, off []int, u, v int32) int {
	i, _ := slices.BinarySearch(g.Neighbors(u), v)
	return off[u] + i
}

// ThreeDetour is a 3-hop replacement path u – X – Y – v for an edge (u,v):
// X ∈ N(u), Y ∈ N(v), (X,Y) an edge, all within the spanner.
type ThreeDetour struct {
	X, Y int32
}

// CountThreeDetours counts the 3-hop paths between u and v inside h
// (middle edges (x, y) with x ∈ N_h(u), y ∈ N_h(v), x ≠ v, y ≠ u, x ≠ y).
func CountThreeDetours(h *graph.Graph, u, v int32) int {
	total := 0
	for _, x := range h.Neighbors(u) {
		if x == v {
			continue
		}
		total += middleCount(h, x, v, u)
	}
	return total
}

// middleCount counts y ∈ N_h(x) ∩ N_h(v) with y ≠ u and y ≠ x... i.e. the
// number of valid detour middles through x for the pair (u, v).
func middleCount(h *graph.Graph, x, v, u int32) int {
	a, b := h.Neighbors(x), h.Neighbors(v)
	count, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			y := a[i]
			if y != u && y != x && y != v {
				count++
			}
			i++
			j++
		}
	}
	return count
}

// SampleThreeDetour picks a uniformly random 3-hop path u–x–y–v in h, or
// ok=false if none exists. Uniformity: x is chosen with probability
// proportional to the number of valid middles through it, then y uniform
// among those middles — exactly the "choose one of the available 3-hop
// paths uniformly at random" rule of Theorem 2's replacement paths.
func SampleThreeDetour(h *graph.Graph, u, v int32, r *rng.RNG) (ThreeDetour, bool) {
	nu := h.Neighbors(u)
	weights := make([]int, len(nu))
	total := 0
	for i, x := range nu {
		if x == v {
			continue
		}
		w := middleCount(h, x, v, u)
		weights[i] = w
		total += w
	}
	if total == 0 {
		return ThreeDetour{}, false
	}
	pick := r.Intn(total)
	for i, x := range nu {
		if pick < weights[i] {
			// Select the pick-th valid middle through x.
			y, ok := nthMiddle(h, x, v, u, pick)
			if !ok {
				break // defensive; cannot happen
			}
			return ThreeDetour{X: x, Y: y}, true
		}
		pick -= weights[i]
	}
	return ThreeDetour{}, false
}

// nthMiddle returns the k-th (0-based) valid middle vertex y for the
// detour u–x–y–v.
func nthMiddle(h *graph.Graph, x, v, u int32, k int) (int32, bool) {
	a, b := h.Neighbors(x), h.Neighbors(v)
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			y := a[i]
			if y != u && y != x && y != v {
				if k == 0 {
					return y, true
				}
				k--
			}
			i++
			j++
		}
	}
	return -1, false
}

// twoHopMiddles returns the common neighbors of u and v in h excluding u
// and v themselves — the routers of 2-detours with base {u, v}.
func twoHopMiddles(h *graph.Graph, u, v int32) []int32 {
	a, b := h.Neighbors(u), h.Neighbors(v)
	var out []int32
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			w := a[i]
			if w != u && w != v {
				out = append(out, w)
			}
			i++
			j++
		}
	}
	return out
}
