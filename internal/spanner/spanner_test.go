package spanner

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/routing"
)

func TestExtensionSupportClique(t *testing.T) {
	g := gen.Clique(5)
	// In K5, every z ∈ N(v)∖{u} (3 nodes) has |N(u)∩N(z)| = 3, so the
	// extension is a-supported for a+1 <= 3.
	if b := ExtensionSupport(g, 0, 1, 2); b != 3 {
		t.Fatalf("ExtensionSupport(K5, a=2) = %d, want 3", b)
	}
	if b := ExtensionSupport(g, 0, 1, 3); b != 0 {
		t.Fatalf("ExtensionSupport(K5, a=3) = %d, want 0", b)
	}
}

func TestIsSupportedPath(t *testing.T) {
	g := gen.Path(5)
	// A path has no triangles or 4-cycles: no edge has any supported
	// extension for a >= 1.
	for _, e := range g.Edges() {
		if IsSupported(g, e, 1, 1) {
			t.Fatalf("path edge %v reported supported", e)
		}
	}
}

func TestCountThreeDetoursK4(t *testing.T) {
	g := gen.Clique(4)
	// u=0, v=1; detours 0-2-3-1 and 0-3-2-1.
	if c := CountThreeDetours(g, 0, 1); c != 2 {
		t.Fatalf("K4 3-detours = %d, want 2", c)
	}
}

func TestCountThreeDetoursNoDetour(t *testing.T) {
	g := gen.Path(4) // 0-1-2-3
	if c := CountThreeDetours(g, 1, 2); c != 0 {
		t.Fatalf("path 3-detours = %d, want 0", c)
	}
}

func TestSampleThreeDetourValidAndUniformish(t *testing.T) {
	g := gen.Clique(6)
	r := rng.New(2)
	counts := make(map[ThreeDetour]int)
	trials := 6000
	for i := 0; i < trials; i++ {
		d, ok := SampleThreeDetour(g, 0, 1, r)
		if !ok {
			t.Fatal("no detour in K6")
		}
		if d.X == 1 || d.Y == 0 || d.X == d.Y {
			t.Fatalf("invalid detour %+v", d)
		}
		if !g.HasEdge(0, d.X) || !g.HasEdge(d.X, d.Y) || !g.HasEdge(d.Y, 1) {
			t.Fatalf("detour %+v uses non-edges", d)
		}
		counts[d]++
	}
	// K6: x ∈ {2,3,4,5}, y ∈ {2,3,4,5}∖{x}: 12 detours, uniform ⇒ 500 each.
	if len(counts) != 12 {
		t.Fatalf("saw %d distinct detours, want 12", len(counts))
	}
	for d, c := range counts {
		if c < 350 || c > 650 {
			t.Fatalf("detour %+v count %d far from uniform 500", d, c)
		}
	}
}

func TestSampleThreeDetourNone(t *testing.T) {
	g := gen.Path(6)
	if _, ok := SampleThreeDetour(g, 2, 3, rng.New(3)); ok {
		t.Fatal("found detour on a path")
	}
}

func TestNeighborhoodMatchingClique(t *testing.T) {
	g := gen.Clique(6)
	m := NeighborhoodMatching(g, 0, 1)
	// N(0) = {1,2,3,4,5}, N(1) = {0,2,3,4,5}: the six participating
	// vertices admit a perfect node-disjoint matching of size 3.
	if len(m) != 3 {
		t.Fatalf("matching size %d, want 3", len(m))
	}
	used := make(map[int32]bool)
	for _, e := range m {
		if used[e.U] || used[e.V] {
			t.Fatal("matching reuses a vertex")
		}
		used[e.U] = true
		used[e.V] = true
		if !g.HasEdge(e.U, e.V) {
			t.Fatal("matching uses a non-edge")
		}
	}
}

func TestNeighborhoodMatchingLemma4Bound(t *testing.T) {
	// On a good expander the neighborhood matching should be large:
	// Lemma 4 promises Δ(1 − λn/Δ²) — only meaningful when Δ² > λn, i.e.
	// for dense expanders. Use a dense random regular graph.
	r := rng.New(4)
	n, d := 120, 60
	g := gen.MustRandomRegular(n, d, r)
	m := NeighborhoodMatching(g, 0, 1)
	// With Δ = n/2 the bound is positive and large; empirically the
	// matching should cover most of the neighborhood.
	if len(m) < d/2 {
		t.Fatalf("neighborhood matching only %d of Δ=%d", len(m), d)
	}
}

func TestBuildExpanderShape(t *testing.T) {
	r := rng.New(5)
	n, d := 216, 60
	g := gen.MustRandomRegular(n, d, r)
	eps := EpsilonForDegree(n, d)
	if eps <= 0 {
		t.Fatalf("degree %d below n^{2/3}", d)
	}
	sp, err := BuildExpander(g, ExpanderOptions{Epsilon: eps, Seed: 7, EnsureConnected: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	p := math.Pow(float64(n), -eps)
	want := p * float64(g.M())
	got := float64(sp.H.M())
	if got < 0.7*want || got > 1.3*want {
		t.Fatalf("|E(H)| = %v, expected ≈ %v", got, want)
	}
}

func TestBuildExpanderStretch3(t *testing.T) {
	r := rng.New(6)
	n, d := 216, 60
	g := gen.MustRandomRegular(n, d, r)
	sp, err := BuildExpander(g, ExpanderOptions{Epsilon: EpsilonForDegree(n, d), Seed: 11, EnsureConnected: true})
	if err != nil {
		t.Fatal(err)
	}
	rep := VerifyEdgeStretch(g, sp.H, 3)
	if rep.Violations != 0 {
		t.Fatalf("%d/%d edges exceed stretch 3 (max %v)", rep.Violations, rep.Checked, rep.MaxStretch)
	}
}

func TestExpanderRouterMatchingCongestion(t *testing.T) {
	r := rng.New(7)
	n, d := 216, 60
	g := gen.MustRandomRegular(n, d, r)
	sp, err := BuildExpander(g, ExpanderOptions{Epsilon: EpsilonForDegree(n, d), Seed: 13, EnsureConnected: true})
	if err != nil {
		t.Fatal(err)
	}
	// Matching routing problem over edges of G (the worst case for the
	// spanner: removed edges must detour).
	var m []graph.Edge
	used := make(map[int32]bool)
	for _, e := range g.Edges() {
		if !used[e.U] && !used[e.V] {
			used[e.U] = true
			used[e.V] = true
			m = append(m, e)
		}
	}
	router := sp.Router(17)
	paths, err := router.RouteMatching(m)
	if err != nil {
		t.Fatal(err)
	}
	rt := &routing.Routing{Problem: routing.MatchingProblem(m), Paths: paths}
	if err := rt.Validate(sp.H); err != nil {
		t.Fatal(err)
	}
	c := rt.NodeCongestion(n)
	// Theorem 2: expected congestion 1+o(1), overall O(log n). Allow a
	// generous constant: 6·log2(216) ≈ 46.
	limit := int(6 * math.Log2(float64(n)))
	if c > limit {
		t.Fatalf("matching congestion %d > %d", c, limit)
	}
	if router.Fallbacks > len(m)/10 {
		t.Fatalf("too many router fallbacks: %d of %d", router.Fallbacks, len(m))
	}
}

func TestBuildRegularInvariants(t *testing.T) {
	r := rng.New(8)
	n, d := 216, 60
	g := gen.MustRandomRegular(n, d, r)
	res, err := BuildRegular(g, DefaultRegularOptions(23))
	if err != nil {
		t.Fatal(err)
	}
	sp := res.Spanner
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	if !res.GPrime.IsSubgraphOf(sp.H) {
		t.Fatal("G' not contained in H")
	}
	if res.DeltaPrime != int(math.Sqrt(float64(d))) {
		t.Fatalf("Δ' = %d", res.DeltaPrime)
	}
	// Accounting: H = E' ∪ E'' ∪ reinserted-without-detour; since the three
	// sets can overlap only as specified, check via direct membership.
	if sp.H.M() > g.M() {
		t.Fatal("spanner larger than base")
	}
}

func TestBuildRegularStretch3Deterministic(t *testing.T) {
	r := rng.New(9)
	n, d := 216, 60
	g := gen.MustRandomRegular(n, d, r)
	res, err := BuildRegular(g, DefaultRegularOptions(29))
	if err != nil {
		t.Fatal(err)
	}
	// With EnsureDetour, every edge of G has a ≤3-hop substitute in H.
	rep := VerifyEdgeStretch(g, res.Spanner.H, 3)
	if rep.Violations != 0 {
		t.Fatalf("%d violations, max stretch %v", rep.Violations, rep.MaxStretch)
	}
}

func TestBuildRegularMatchingCongestionLemma17(t *testing.T) {
	r := rng.New(10)
	n, d := 216, 60
	g := gen.MustRandomRegular(n, d, r)
	res, err := BuildRegular(g, DefaultRegularOptions(31))
	if err != nil {
		t.Fatal(err)
	}
	prob := routing.RandomMatchingProblem(n, n/4, r)
	var edges []graph.Edge
	for _, p := range prob {
		// Route arbitrary matching pairs that are edges of G if possible;
		// otherwise skip (Lemma 17 concerns matchings that are edge sets).
		if g.HasEdge(p.Src, p.Dst) {
			edges = append(edges, graph.Edge{U: p.Src, V: p.Dst}.Normalize())
		}
	}
	// Ensure decent sample: add greedy matching edges from G.
	used := make(map[int32]bool)
	for _, e := range edges {
		used[e.U] = true
		used[e.V] = true
	}
	for _, e := range g.Edges() {
		if !used[e.U] && !used[e.V] {
			used[e.U] = true
			used[e.V] = true
			edges = append(edges, e)
		}
	}
	router := res.Spanner.Router(37)
	paths, err := router.RouteMatching(edges)
	if err != nil {
		t.Fatal(err)
	}
	rt := &routing.Routing{Problem: routing.MatchingProblem(edges), Paths: paths}
	if err := rt.Validate(res.Spanner.H); err != nil {
		t.Fatal(err)
	}
	c := rt.NodeCongestion(n)
	// Lemma 17: C ≤ 1 + 2Δ' w.h.p. Allow 2× slack for the small-n regime.
	limit := 2 * (1 + 2*res.DeltaPrime)
	if c > limit {
		t.Fatalf("matching congestion %d > %d (Δ'=%d)", c, limit, res.DeltaPrime)
	}
}

func TestBuildRegularEdgeCases(t *testing.T) {
	if _, err := BuildRegular(graph.NewBuilder(0).MustBuild(), DefaultRegularOptions(1)); err == nil {
		t.Fatal("accepted empty graph")
	}
	if _, err := BuildRegular(graph.NewBuilder(3).MustBuild(), DefaultRegularOptions(1)); err == nil {
		t.Fatal("accepted edgeless graph")
	}
}

func TestBaswanaSenStretch(t *testing.T) {
	r := rng.New(11)
	g := gen.MustRandomRegular(150, 20, r)
	for _, k := range []int{2, 3} {
		sp, err := BaswanaSen(g, k, r)
		if err != nil {
			t.Fatal(err)
		}
		if err := sp.Validate(); err != nil {
			t.Fatal(err)
		}
		alpha := 2*k - 1
		rep := VerifyEdgeStretch(g, sp.H, alpha)
		if rep.Violations != 0 {
			t.Fatalf("k=%d: %d violations, max %v", k, rep.Violations, rep.MaxStretch)
		}
	}
}

func TestBaswanaSenSparsifies(t *testing.T) {
	r := rng.New(12)
	g := gen.Clique(100) // densest case
	sp, err := BaswanaSen(g, 2, r)
	if err != nil {
		t.Fatal(err)
	}
	// 3-spanner of K100 should have ≪ 4950 edges (expected O(n^{1.5})).
	if sp.H.M() >= g.M()/2 {
		t.Fatalf("Baswana-Sen kept %d of %d edges", sp.H.M(), g.M())
	}
}

func TestBaswanaSenK1IsIdentity(t *testing.T) {
	g := gen.Cycle(10)
	sp, err := BaswanaSen(g, 1, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	if sp.H.M() != g.M() {
		t.Fatal("k=1 spanner dropped edges")
	}
}

func TestGreedySpanner(t *testing.T) {
	g := gen.Clique(60)
	sp := Greedy(g, 3)
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	rep := VerifyEdgeStretch(g, sp.H, 3)
	if rep.Violations != 0 {
		t.Fatalf("greedy violated stretch: max %v", rep.MaxStretch)
	}
	// Greedy 3-spanner of K_n has O(n^{3/2}) edges; for n=60 that is far
	// below 1770.
	if sp.H.M() > 60*8 {
		t.Fatalf("greedy kept %d edges", sp.H.M())
	}
}

func TestGreedyKeepsTreeWhenAlphaHuge(t *testing.T) {
	g := gen.Clique(20)
	sp := Greedy(g, 100)
	// With a huge stretch budget the greedy spanner is a spanning forest.
	if sp.H.M() != 19 {
		t.Fatalf("huge-alpha greedy kept %d edges, want 19", sp.H.M())
	}
	if !sp.H.Connected() {
		t.Fatal("greedy output disconnected")
	}
}

func TestSparsifyUniform(t *testing.T) {
	r := rng.New(14)
	n, d := 300, 40
	g := gen.MustRandomRegular(n, d, r)
	sp, err := SparsifyUniform(g, 3.0, 41)
	if err != nil {
		t.Fatal(err)
	}
	if !sp.H.Connected() {
		t.Fatal("sparsifier disconnected")
	}
	// Expected edges ≈ c·ln n·n/2 ≈ 3·5.7·150 ≈ 2566; base has 6000.
	if sp.H.M() >= g.M() {
		t.Fatal("sparsifier did not sparsify")
	}
}

func TestExtractBoundedDegree(t *testing.T) {
	r := rng.New(15)
	n := 100
	g, err := gen.DenseExpander(n, 0.5, r)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := ExtractBoundedDegree(g, 4, 43)
	if err != nil {
		t.Fatal(err)
	}
	if sp.H.MaxDegree() > 8 {
		t.Fatalf("max degree %d > 2d = 8", sp.H.MaxDegree())
	}
	if !sp.H.Connected() {
		t.Fatal("extraction disconnected")
	}
	if sp.H.M() > n*4 {
		t.Fatalf("extraction kept %d edges > n·d", sp.H.M())
	}
}

func TestVerifyEdgeStretchIdentity(t *testing.T) {
	g := gen.Cycle(20)
	rep := VerifyEdgeStretch(g, g, 1)
	if rep.Violations != 0 || rep.MaxStretch != 1 {
		t.Fatalf("identity stretch report: %+v", rep)
	}
}

func TestVerifyEdgeStretchDetectsViolation(t *testing.T) {
	g := gen.Cycle(20)
	// Remove one edge: its endpoints are now 19 apart.
	h := g.FilterEdges(func(e graph.Edge) bool { return !(e.U == 0 && e.V == 1) })
	rep := VerifyEdgeStretch(g, h, 3)
	if rep.Violations != 1 {
		t.Fatalf("violations = %d, want 1", rep.Violations)
	}
	if rep.MaxStretch != 19 {
		t.Fatalf("max stretch = %v, want 19", rep.MaxStretch)
	}
}

func TestVerifyPairStretch(t *testing.T) {
	r := rng.New(16)
	g := gen.MustRandomRegular(100, 8, r)
	rep := VerifyPairStretch(g, g, 200, r)
	if rep.MaxStretch != 1 {
		t.Fatalf("identity pair stretch %v", rep.MaxStretch)
	}
}

// Property: the DetourRouter always produces valid paths in H with the
// right endpoints, for arbitrary spanners of random regular graphs.
func TestPropertyRouterValidity(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		n := 40 + 2*r.Intn(40)
		g := gen.MustRandomRegular(n, 10, r)
		var h *graph.Graph
		for {
			h = g.FilterEdges(func(graph.Edge) bool { return r.Bernoulli(0.5) })
			if h.Connected() {
				break
			}
		}
		sp := &Spanner{Base: g, H: h, Primary: h, Algorithm: "test"}
		router := sp.Router(seed)
		var m []graph.Edge
		used := make(map[int32]bool)
		for _, e := range g.Edges() {
			if !used[e.U] && !used[e.V] {
				used[e.U] = true
				used[e.V] = true
				m = append(m, e)
			}
		}
		paths, err := router.RouteMatching(m)
		if err != nil {
			return false
		}
		for i, p := range paths {
			if !p.Valid(h, m[i].U, m[i].V) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: BuildRegular with EnsureDetour is always a 3-distance spanner.
func TestPropertyRegularAlwaysStretch3(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		n := 60 + 2*r.Intn(40)
		d := n / 3
		if (n*d)%2 != 0 {
			d++
		}
		g := gen.MustRandomRegular(n, d, r)
		res, err := BuildRegular(g, DefaultRegularOptions(seed))
		if err != nil {
			return false
		}
		rep := VerifyEdgeStretch(g, res.Spanner.H, 3)
		return rep.Violations == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSupportedEdges(b *testing.B) {
	r := rng.New(17)
	g := gen.MustRandomRegular(300, 40, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SupportedEdges(g, 3, 10)
	}
}

func BenchmarkBuildRegular(b *testing.B) {
	r := rng.New(18)
	g := gen.MustRandomRegular(216, 60, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildRegular(g, DefaultRegularOptions(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSampleThreeDetour(b *testing.B) {
	r := rng.New(19)
	g := gen.MustRandomRegular(300, 30, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SampleThreeDetour(g, int32(i%300), int32((i+7)%300), r)
	}
}

func TestGreedySpannerGirth(t *testing.T) {
	// The greedy α-spanner never keeps an edge whose endpoints are within
	// α in the current spanner, so its girth exceeds α+1 — the structural
	// fact behind the Erdős-girth-conjecture size lower bounds the paper's
	// related work cites.
	g := gen.Clique(40)
	sp := Greedy(g, 3)
	girth := sp.H.Girth()
	if girth != graph.Unreachable && girth <= 4 {
		t.Fatalf("greedy 3-spanner girth %d, want > 4", girth)
	}
}
