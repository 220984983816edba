package check

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/rng"
)

// TestQuickRunNoDivergences is the harness's own gate: the quick sweep at
// the default seed must be divergence-free (verify.sh runs the same sweep
// through cmd/dccheck).
func TestQuickRunNoDivergences(t *testing.T) {
	rep, err := Run(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range rep.Divergences {
		t.Errorf("divergence: %s", d)
	}
	if rep.Families != len(Families()) {
		t.Errorf("swept %d families, registry has %d", rep.Families, len(Families()))
	}
	if rep.Checks == 0 {
		t.Error("run evaluated zero checks")
	}
}

// TestRunDeterministic pins the reproducibility contract: two runs with
// the same options produce byte-identical reports (same check count, same
// divergence list), and restricting to one family replays exactly the
// same assertions for it.
func TestRunDeterministic(t *testing.T) {
	opts := Options{Quick: true, Seed: 77, Families: []string{"erdosrenyi-sparse", "regular"}}
	a, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same options, different reports:\n%+v\n%+v", a, b)
	}
}

func TestRunUnknownFamily(t *testing.T) {
	if _, err := Run(Options{Families: []string{"no-such-family"}}); err == nil {
		t.Fatal("unknown family accepted")
	}
}

// TestFamiliesBuildDeterministically guards the registry itself: same
// stream, same graph, and every family passes the graph invariants in
// both size modes.
func TestFamiliesBuildDeterministically(t *testing.T) {
	for _, f := range Families() {
		for _, quick := range []bool{true, false} {
			g1 := f.Build(rng.New(5), quick)
			g2 := f.Build(rng.New(5), quick)
			if g1.N() != g2.N() || !reflect.DeepEqual(g1.Edges(), g2.Edges()) {
				t.Errorf("family %s (quick=%v) not deterministic in its stream", f.Name, quick)
			}
			if err := GraphInvariants(g1); err != nil {
				t.Errorf("family %s (quick=%v): %v", f.Name, quick, err)
			}
		}
	}
}

// TestInvariantCheckersCatchViolations feeds each checker a violating
// input: a spanner with an edge its base graph lacks, and a spanner that
// disconnects its base graph.
func TestInvariantCheckersCatchViolations(t *testing.T) {
	path := gen.Path(6)
	cycle := gen.Cycle(6) // has the wrap-around edge Path lacks
	if err := SpannerInvariants(path, cycle); err == nil {
		t.Error("SpannerInvariants accepted H ⊄ G")
	}
	if err := SpannerInvariants(path, gen.Path(5)); err == nil {
		t.Error("SpannerInvariants accepted differing vertex sets")
	}
	if err := SpannerInvariants(cycle, path); err != nil {
		t.Errorf("SpannerInvariants rejected a valid spanner: %v", err)
	}

	// Drop the middle edge of the path: still a subgraph, no longer
	// connecting what G connects.
	broken := path.FilterEdges(func(e graph.Edge) bool { return e.U != 2 })
	if err := SpannerInvariants(path, broken); err != nil {
		t.Errorf("subgraph with fewer edges should pass SpannerInvariants: %v", err)
	}
	if err := ConnectivityPreserved(path, broken); err == nil {
		t.Error("ConnectivityPreserved accepted a disconnecting spanner")
	}
	if err := ConnectivityPreserved(path, path); err != nil {
		t.Errorf("ConnectivityPreserved rejected the identity spanner: %v", err)
	}
}

// TestCheckAnswerCatchesWrongAnswers proves the oracle differential can
// actually fire: hand-corrupted answers must produce divergences.
func TestCheckAnswerCatchesWrongAnswers(t *testing.T) {
	g := gen.Path(5)
	dist := AllPairs(g)
	lms := []int32{0}
	cases := []struct {
		name string
		a    oracle.Answer
	}{
		{"wrong exact distance", oracle.Answer{U: 0, V: 3, Dist: 2, Bound: 3, Exact: true}},
		{"wrong bound", oracle.Answer{U: 0, V: 3, Dist: 3, Bound: 4, Exact: true}},
		{"inexact answer", oracle.Answer{U: 0, V: 3, Dist: 3, Bound: 3, Exact: false}},
		{"nonzero self distance", oracle.Answer{U: 2, V: 2, Dist: 1, Bound: 0, Exact: true}},
	}
	for _, tc := range cases {
		rep := &Report{}
		ck := &checker{rep: rep, family: "test", check: tc.name, seed: 1}
		checkAnswer(ck, tc.a, dist, lms)
		if rep.OK() {
			t.Errorf("%s: corrupted answer produced no divergence", tc.name)
		}
	}
	// And a correct answer must not fire.
	rep := &Report{}
	ck := &checker{rep: rep, family: "test", check: "good", seed: 1}
	checkAnswer(ck, oracle.Answer{U: 0, V: 3, Dist: 3, Bound: 3, Exact: true}, dist, lms)
	if !rep.OK() {
		t.Errorf("correct answer flagged: %v", rep.Divergences)
	}
}

// TestModelLRU pins the reference cache's own semantics (the model must
// be right for the differential to mean anything).
func TestModelLRU(t *testing.T) {
	m := NewModelLRU(2)
	m.Put(1, 10)
	m.Put(2, 20)
	if v, ok := m.Get(1); !ok || v != 10 {
		t.Fatalf("Get(1) = (%d,%v), want (10,true)", v, ok)
	}
	m.Put(3, 30) // evicts 2: key 1 was promoted by the Get above
	if _, ok := m.Get(2); ok {
		t.Fatal("LRU victim 2 still cached")
	}
	if v, ok := m.Get(1); !ok || v != 10 {
		t.Fatalf("Get(1) after eviction round = (%d,%v), want (10,true)", v, ok)
	}
	m.Put(1, 11) // update in place, no eviction
	if v, _ := m.Get(1); v != 11 {
		t.Fatalf("updated value = %d, want 11", v)
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2", m.Len())
	}

	off := NewModelLRU(0)
	off.Put(1, 10)
	if _, ok := off.Get(1); ok || off.Len() != 0 {
		t.Fatal("disabled model cache stored an entry")
	}
}

func TestPairKeyNormalizes(t *testing.T) {
	if PairKey(3, 7) != PairKey(7, 3) {
		t.Fatal("PairKey not symmetric")
	}
	if PairKey(3, 7) == PairKey(3, 8) {
		t.Fatal("PairKey collides on distinct pairs")
	}
}

// TestCacheProbeConcurrent hammers the probe from many goroutines so the
// race detector sweeps the sharded cache through the check seam.
func TestCacheProbeConcurrent(t *testing.T) {
	probe := oracle.NewCacheProbe(64, 4)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.New(uint64(w + 1))
			for i := 0; i < 2000; i++ {
				u, v := int32(r.Intn(20)), int32(r.Intn(20))
				if r.Bernoulli(0.5) {
					probe.Get(u, v)
				} else {
					probe.Put(u, v, int32(r.Intn(50)))
				}
			}
		}(w)
	}
	wg.Wait()
	hits, misses := probe.Counters()
	if hits+misses == 0 {
		t.Fatal("no gets recorded")
	}
}

// TestReferenceStretchConventions pins the reference kernels' value
// conventions directly (disconnection → +Inf, identical pairs → 1).
func TestReferenceStretchConventions(t *testing.T) {
	g := gen.Path(4)
	empty := g.FilterEdges(func(graph.Edge) bool { return false })
	distG, distE := AllPairs(g), AllPairs(empty)

	rep := EdgeStretch(g, distE, alpha)
	if rep.Checked != g.M() || rep.Violations != g.M() {
		t.Fatalf("edge stretch on empty spanner: %+v", rep)
	}

	// The pair sweep asserts no finite bound (its bound is +Inf), so
	// disconnection shows up as infinite MaxStretch, not as a violation.
	pairs := [][2]int32{{0, 1}, {0, 3}}
	pr := PairStretch(distG, distE, pairs)
	if pr.Checked != 2 || !math.IsInf(pr.MaxStretch, 1) || pr.Violations != 0 {
		t.Fatalf("pair stretch on empty spanner: %+v", pr)
	}
	same := PairStretch(distE, distE, pairs)
	if same.MaxStretch != 1 || same.Violations != 0 {
		t.Fatalf("both-unreachable pairs should have stretch 1: %+v", same)
	}
}
