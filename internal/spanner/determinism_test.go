package spanner

import (
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// The README and DESIGN.md promise that sampling results are identical
// regardless of GOMAXPROCS (chunked per-stream randomness). Pin it.
func TestSamplingDeterministicAcrossWorkerCounts(t *testing.T) {
	g := gen.MustRandomRegular(300, 20, rng.New(7))
	build := func() *Spanner {
		sp, err := BuildExpander(g, ExpanderOptions{SampleProb: 0.4, Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		return sp
	}
	old := runtime.GOMAXPROCS(1)
	a := build()
	runtime.GOMAXPROCS(8)
	b := build()
	runtime.GOMAXPROCS(old)

	if a.H.M() != b.H.M() {
		t.Fatalf("edge counts differ across GOMAXPROCS: %d vs %d", a.H.M(), b.H.M())
	}
	for i, e := range a.H.Edges() {
		if b.H.Edges()[i] != e {
			t.Fatalf("edge %d differs across GOMAXPROCS", i)
		}
	}
}

// BuildRegular end-to-end determinism: same seed, different worker counts.
func TestRegularDeterministicAcrossWorkerCounts(t *testing.T) {
	g := gen.MustRandomRegular(216, 40, rng.New(8))
	build := func() *RegularResult {
		res, err := BuildRegular(g, DefaultRegularOptions(123))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	old := runtime.GOMAXPROCS(1)
	a := build()
	runtime.GOMAXPROCS(4)
	b := build()
	runtime.GOMAXPROCS(old)
	if a.Spanner.H.M() != b.Spanner.H.M() || !a.Spanner.H.IsSubgraphOf(b.Spanner.H) {
		t.Fatalf("Algorithm 1 output differs across GOMAXPROCS: %d vs %d edges",
			a.Spanner.H.M(), b.Spanner.H.M())
	}
	if a.ReinsertedNoDetour != b.ReinsertedNoDetour {
		t.Fatalf("reinsertion accounting differs: %d vs %d",
			a.ReinsertedNoDetour, b.ReinsertedNoDetour)
	}
}

// The codegree-row census must equal the scalar per-edge definition
// IsSupported at every worker count: on a small dense graph where almost
// every edge is supported, on a larger one at thresholds where both
// outcomes occur (a near the median codegree, b near the median extension
// count), and at the extremes b = 0 (every edge) and b > Δ (no edge).
func TestSupportedEdgesMatchesScalarAcrossWorkerCounts(t *testing.T) {
	small := gen.MustRandomRegular(60, 12, rng.New(1))
	mid := gen.MustRandomRegular(160, 36, rng.New(3))
	cases := []struct {
		g    *graph.Graph
		a, b int
	}{
		{small, 2, 4},
		{mid, 7, 26}, {mid, 7, 28}, {mid, 8, 20}, {mid, 8, 22},
		{mid, 3, 0}, {mid, 1, 37},
	}
	for _, c := range cases {
		ref := make([]bool, c.g.M())
		supported := 0
		for i, e := range c.g.Edges() {
			ref[i] = IsSupported(c.g, e, c.a, c.b)
			if ref[i] {
				supported++
			}
		}
		t.Logf("%v a=%d b=%d: %d of %d edges supported", c.g, c.a, c.b, supported, c.g.M())
		for _, workers := range []int{1, 2, 8} {
			got := SupportedEdgesWorkers(c.g, c.a, c.b, workers)
			for i, e := range c.g.Edges() {
				if got[i] != ref[i] {
					t.Fatalf("%v a=%d b=%d workers=%d: edge %v census %v, IsSupported %v",
						c.g, c.a, c.b, workers, e, got[i], ref[i])
				}
			}
		}
	}
}

// The verification kernels promise byte-identical reports for every
// Workers value (ISSUE 4's determinism contract, DESIGN.md §9): the pair
// sample is drawn serially without replacement before the sweep, and each
// sweep unit writes only its own slot. Pin it on both graph families the
// Table 1 measurements use: random regular graphs and (dense) expanders.
func TestVerifyKernelsDeterministicAcrossWorkerCounts(t *testing.T) {
	families := []struct {
		name string
		g    *graph.Graph
	}{
		{"random-regular", gen.MustRandomRegular(300, 24, rng.New(17))},
	}
	if exp, err := gen.DenseExpander(128, 0.5, rng.New(18)); err == nil {
		families = append(families, struct {
			name string
			g    *graph.Graph
		}{"dense-expander", exp})
	} else {
		t.Fatalf("DenseExpander: %v", err)
	}
	for _, fam := range families {
		h := Greedy(fam.g, 3)
		edgeBase := VerifyEdgeStretchOpts(fam.g, h.H, 3, VerifyOptions{Workers: 1})
		pairBase := VerifyPairStretchOpts(fam.g, h.H, 200, rng.New(99), VerifyOptions{Workers: 1})
		for _, workers := range []int{0, 2, 4, 13} {
			if got := VerifyEdgeStretchOpts(fam.g, h.H, 3, VerifyOptions{Workers: workers}); got != edgeBase {
				t.Errorf("%s: edge-stretch report differs at workers=%d: %+v vs %+v",
					fam.name, workers, got, edgeBase)
			}
			if got := VerifyPairStretchOpts(fam.g, h.H, 200, rng.New(99), VerifyOptions{Workers: workers}); got != pairBase {
				t.Errorf("%s: pair-stretch report differs at workers=%d: %+v vs %+v",
					fam.name, workers, got, pairBase)
			}
		}
	}
}

// The pair sample must be drawn without replacement: requesting more pairs
// than C(n,2) clamps to the full pair space, and Checked reports the
// distinct pairs actually measured.
func TestVerifyPairStretchSampleClampsToPairSpace(t *testing.T) {
	g := gen.MustRandomRegular(12, 4, rng.New(3))
	h := Greedy(g, 3)
	rep := VerifyPairStretchOpts(g, h.H, 1000, rng.New(5), VerifyOptions{Workers: 2})
	if want := 12 * 11 / 2; rep.Checked != want {
		t.Fatalf("Checked = %d, want clamp to C(12,2) = %d", rep.Checked, want)
	}
}
