// Package spectral estimates adjacency-matrix eigenvalues of graphs and
// verifies the expander properties the paper's theorems assume.
//
// The paper (Section 3) calls an n-node graph a spectral expander with
// expansion λ when max(|λ₂|, |λ_n|) ≤ λ, where λ₁ ≥ … ≥ λ_n are the
// adjacency eigenvalues ordered by magnitude. For the Δ-regular graphs
// used throughout, λ₁ = Δ with the all-ones eigenvector, so power
// iteration on the complement of the top eigenvector converges to exactly
// max(|λ₂|, |λ_n|). The package certifies — rather than assumes — the
// premise of Theorem 2 on every generated input.
package spectral

import (
	"math"

	"repro/internal/graph"
	"repro/internal/rng"
)

// MatVec computes y = A·x for the adjacency matrix of g, in parallel over
// vertex chunks. len(x) and len(y) must equal g.N().
func MatVec(g *graph.Graph, x, y []float64) {
	graph.ParallelRangeWorkers(g.N(), 0, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			sum := 0.0
			for _, w := range g.Neighbors(int32(v)) {
				sum += x[w]
			}
			y[v] = sum
		}
	})
}

func norm(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func scale(x []float64, c float64) {
	for i := range x {
		x[i] *= c
	}
}

// subtractProjection removes the component of x along the unit vector u.
func subtractProjection(x, u []float64) {
	c := dot(x, u)
	for i := range x {
		x[i] -= c * u[i]
	}
}

// shiftedPower runs power iteration on M = sign·A + c·I, optionally
// deflating the unit vector defl every step. It returns the Rayleigh
// quotient xᵀMx of the converged unit vector (an estimate of the largest
// eigenvalue of M restricted to defl's complement) and the vector itself.
//
// Shifting by c > 0 makes M's spectrum strictly ordered even when A has
// eigenvalue ties of opposite sign (bipartite graphs have λ_n = −λ₁, on
// which unshifted power iteration oscillates forever).
func shiftedPower(g *graph.Graph, sign, c float64, iters int, defl []float64, r *rng.RNG) (float64, []float64) {
	n := g.N()
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = 1 + r.Norm64()
	}
	if defl != nil {
		subtractProjection(x, defl)
	}
	nx := norm(x)
	if nx == 0 {
		return 0, x
	}
	scale(x, 1/nx)
	mu := 0.0
	for it := 0; it < iters; it++ {
		MatVec(g, x, y)
		for i := range y {
			y[i] = sign*y[i] + c*x[i]
		}
		if defl != nil {
			subtractProjection(y, defl) // re-deflate against drift
		}
		ny := norm(y)
		if ny == 0 {
			return 0, x
		}
		mu = dot(x, y)
		scale(y, 1/ny)
		x, y = y, x
	}
	return mu, x
}

// TopEigen estimates λ₁ (the most positive adjacency eigenvalue, which is
// also the Perron value for connected graphs) and its eigenvector. It
// power-iterates on A + cI with c = Δ_max + 1, which is positive definite
// and has a strictly largest eigenvalue λ₁ + c, so it converges even on
// bipartite graphs.
func TopEigen(g *graph.Graph, iters int, r *rng.RNG) (float64, []float64) {
	n := g.N()
	if n == 0 {
		return 0, nil
	}
	c := float64(g.MaxDegree()) + 1
	mu, v := shiftedPower(g, 1, c, iters, nil, r)
	return mu - c, v
}

// Expansion estimates λ = max(|λ₂|, |λ_n|) and λ₁. λ₂ comes from power
// iteration on A + cI deflated against the top eigenvector; λ_n from power
// iteration on cI − A (whose top eigenvalue is c − λ_n). For Δ-regular
// graphs λ₁ = Δ with the uniform eigenvector, making the deflation exact.
func Expansion(g *graph.Graph, iters int, r *rng.RNG) (lambda, lambda1 float64) {
	n := g.N()
	if n <= 1 {
		return 0, 0
	}
	c := float64(g.MaxDegree()) + 1
	mu1, v1 := shiftedPower(g, 1, c, iters, nil, r)
	l1 := mu1 - c
	mu2, _ := shiftedPower(g, 1, c, iters, v1, r)
	l2 := mu2 - c
	muN, _ := shiftedPower(g, -1, c, iters, nil, r)
	ln := c - muN
	lam := math.Abs(l2)
	if a := math.Abs(ln); a > lam {
		// Guard: on disconnected or tiny graphs the (−A) iteration can
		// converge back to −λ₁'s magnitude only if λ_n = −λ₁; that is the
		// correct answer for bipartite graphs, so no special-casing.
		lam = a
	}
	return lam, l1
}

// IsExpander reports whether g certifies as a spectral expander with
// expansion at most maxLambda, returning the measured λ as well.
func IsExpander(g *graph.Graph, maxLambda float64, r *rng.RNG) (bool, float64) {
	lam, _ := Expansion(g, 300, r)
	return lam <= maxLambda, lam
}

// MixingReport summarizes an empirical check of the expander mixing lemma
// (Lemma 3): for node subsets S, T,
//
//	|e(S,T) − (Δ/n)·|S|·|T|| ≤ λ·√(|S|·|T|),
//
// where e(S,T) counts ordered pairs (u ∈ S, v ∈ T) with {u,v} ∈ E.
type MixingReport struct {
	Trials         int
	MaxDiscrepancy float64 // max over trials of |e(S,T) − Δ|S||T|/n|
	MaxRatio       float64 // max over trials of discrepancy / √(|S||T|) — an empirical λ lower bound
	Violations     int     // trials exceeding lambda·√(|S||T|)
}

// MixingCheck runs `trials` random-subset instantiations of Lemma 3
// against the supplied λ bound on a Δ-regular graph (Δ is taken from the
// graph; for non-regular graphs the average degree is used, which is only
// a heuristic).
func MixingCheck(g *graph.Graph, lambda float64, trials int, r *rng.RNG) MixingReport {
	n := g.N()
	var rep MixingReport
	rep.Trials = trials
	if n == 0 {
		return rep
	}
	davg := 2 * float64(g.M()) / float64(n)
	inS := make([]bool, n)
	inT := make([]bool, n)
	for t := 0; t < trials; t++ {
		sSize := 1 + r.Intn(n)
		tSize := 1 + r.Intn(n)
		S := r.Sample(n, sSize)
		T := r.Sample(n, tSize)
		for _, v := range S {
			inS[v] = true
		}
		for _, v := range T {
			inT[v] = true
		}
		e := 0
		for _, u := range S {
			for _, w := range g.Neighbors(int32(u)) {
				if inT[w] {
					e++
				}
			}
		}
		expected := davg * float64(sSize) * float64(tSize) / float64(n)
		disc := math.Abs(float64(e) - expected)
		bound := lambda * math.Sqrt(float64(sSize)*float64(tSize))
		ratio := disc / math.Sqrt(float64(sSize)*float64(tSize))
		if disc > rep.MaxDiscrepancy {
			rep.MaxDiscrepancy = disc
		}
		if ratio > rep.MaxRatio {
			rep.MaxRatio = ratio
		}
		if disc > bound {
			rep.Violations++
		}
		for _, v := range S {
			inS[v] = false
		}
		for _, v := range T {
			inT[v] = false
		}
	}
	return rep
}

// ConductanceSweep computes the minimum conductance over prefix cuts of
// the vertices ordered by the (deflated) second eigenvector — the standard
// spectral sweep certificate for edge expansion. Returns the minimum
// conductance φ(S) = e(S, V∖S) / min(vol(S), vol(V∖S)).
func ConductanceSweep(g *graph.Graph, iters int, r *rng.RNG) float64 {
	n := g.N()
	if n < 2 || g.M() == 0 {
		return 0
	}
	_, v1 := TopEigen(g, iters, r)
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = r.Norm64()
	}
	subtractProjection(x, v1)
	scale(x, 1/norm(x))
	for it := 0; it < iters; it++ {
		MatVec(g, x, y)
		subtractProjection(y, v1)
		ny := norm(y)
		if ny == 0 {
			break
		}
		scale(y, 1/ny)
		x, y = y, x
	}
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	// Insertion of sort.Slice here is fine; n is small for sweep use.
	sortByScore(order, x)

	totalVol := 2 * g.M()
	inS := make([]bool, n)
	vol := 0
	cut := 0
	best := math.Inf(1)
	for i := 0; i < n-1; i++ {
		v := order[i]
		inS[v] = true
		vol += g.Degree(v)
		for _, w := range g.Neighbors(v) {
			if inS[w] {
				cut-- // edge became internal
			} else {
				cut++
			}
		}
		minVol := vol
		if totalVol-vol < minVol {
			minVol = totalVol - vol
		}
		if minVol > 0 {
			phi := float64(cut) / float64(minVol)
			if phi < best {
				best = phi
			}
		}
	}
	return best
}

func sortByScore(order []int32, score []float64) {
	// Simple bottom-up merge sort keyed by score; avoids importing sort
	// with a closure capture in the hot path and keeps determinism.
	n := len(order)
	buf := make([]int32, n)
	for width := 1; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid := lo + width
			hi := lo + 2*width
			if mid > n {
				mid = n
			}
			if hi > n {
				hi = n
			}
			i, j, k := lo, mid, lo
			for i < mid && j < hi {
				if score[order[i]] <= score[order[j]] {
					buf[k] = order[i]
					i++
				} else {
					buf[k] = order[j]
					j++
				}
				k++
			}
			for i < mid {
				buf[k] = order[i]
				i++
				k++
			}
			for j < hi {
				buf[k] = order[j]
				j++
				k++
			}
		}
		copy(order, buf)
	}
}
