package spanner

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/graph/graphtest"
	"repro/internal/rng"
)

// edgesEqual compares two canonical edge lists.
func edgesEqual(a, b []graph.Edge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// The keystone property: after any update sequence, the maintained
// spanner is identical — edge for edge — to the one built from scratch
// on the current edge set, and it is a valid 3-spanner of that edge set.
func TestIncrementalEqualsRebuilt(t *testing.T) {
	for name, base := range map[string]*graph.Graph{
		"er-sparse": gen.ErdosRenyi(40, 0.06, rng.New(7)),
		"er-dense":  gen.ErdosRenyi(30, 0.25, rng.New(8)),
		"cycle":     gen.Cycle(32),
		"clique":    gen.Clique(14),
	} {
		const seed = 0xd1_5c0_c0de
		inc := NewIncremental(base, IncrementalOptions{Seed: seed})
		r := rng.New(99)
		n := int32(base.N())
		for step := 0; step < 300; step++ {
			u, v := int32(r.Intn(int(n))), int32(r.Intn(int(n)))
			if u == v {
				continue
			}
			var err error
			if r.Bernoulli(0.5) {
				_, _, err = inc.Insert(u, v)
			} else {
				_, _, err = inc.Delete(u, v)
			}
			if err != nil {
				t.Fatal(err)
			}
			if step%29 != 0 {
				continue
			}
			snap := inc.Graph().Snapshot()
			fresh := NewIncremental(snap, IncrementalOptions{Seed: seed})
			if !edgesEqual(inc.Edges(), fresh.Edges()) {
				t.Fatalf("%s step %d: incremental spanner (%d edges) != rebuilt (%d edges)",
					name, step, inc.HM(), fresh.HM())
			}
			s := inc.Spanner()
			if err := s.Validate(); err != nil {
				t.Fatalf("%s step %d: %v", name, step, err)
			}
			if rep := VerifyEdgeStretch(snap, s.H, IncrementalAlpha); rep.Violations != 0 {
				t.Fatalf("%s step %d: %d edges over stretch %d (max %.1f)",
					name, step, rep.Violations, IncrementalAlpha, rep.MaxStretch)
			}
		}
	}
}

// No-op updates (inserting a present edge, deleting an absent one) must
// not change the spanner or advance the sequence counter.
func TestIncrementalNoOpUpdates(t *testing.T) {
	base := gen.Cycle(20)
	inc := NewIncremental(base, IncrementalOptions{Seed: 3})
	before := inc.Edges()
	seq := inc.Seq()
	if applied, _, err := inc.Insert(0, 1); err != nil || applied {
		t.Fatalf("inserting a present edge: applied=%v err=%v", applied, err)
	}
	if applied, _, err := inc.Delete(0, 5); err != nil || applied {
		t.Fatalf("deleting an absent edge: applied=%v err=%v", applied, err)
	}
	if _, _, err := inc.Insert(0, 20); err == nil {
		t.Fatal("out-of-range insert accepted")
	}
	if inc.Seq() != seq || !edgesEqual(inc.Edges(), before) {
		t.Fatal("no-op updates mutated the maintained state")
	}
}

// Disconnecting and reconnecting a component round-trips to the exact
// original spanner — deletions must fully unwind H.
func TestIncrementalDeleteReinsertRoundTrip(t *testing.T) {
	base := gen.ErdosRenyi(30, 0.15, rng.New(21))
	inc := NewIncremental(base, IncrementalOptions{Seed: 77})
	want := inc.Edges()
	edges := append([]graph.Edge(nil), base.Edges()...)
	for _, e := range edges {
		if _, _, err := inc.Delete(e.U, e.V); err != nil {
			t.Fatal(err)
		}
	}
	if inc.HM() != 0 || inc.Graph().M() != 0 {
		t.Fatalf("after deleting every edge: hm=%d m=%d", inc.HM(), inc.Graph().M())
	}
	for i := len(edges) - 1; i >= 0; i-- {
		if _, _, err := inc.Insert(edges[i].U, edges[i].V); err != nil {
			t.Fatal(err)
		}
	}
	if !edgesEqual(inc.Edges(), want) {
		t.Fatal("delete-all/re-insert-all did not restore the original spanner")
	}
}

// The delta an update reports is exactly the diff of Edges() before and
// after it, through local repairs and no-ops, whose delta is empty.
func TestIncrementalDeltaIsEdgeDiff(t *testing.T) {
	base := gen.ErdosRenyi(34, 0.14, rng.New(17))
	inc := NewIncremental(base, IncrementalOptions{Seed: 0xde17a})
	r := rng.New(23)
	sawNoop, sawChange := false, false
	for step := 0; step < 400; step++ {
		u, v := int32(r.Intn(34)), int32(r.Intn(34))
		if u == v {
			continue
		}
		before := inc.Edges()
		var (
			applied bool
			d       Delta
			err     error
		)
		if r.Bernoulli(0.5) {
			applied, d, err = inc.Insert(u, v)
		} else {
			applied, d, err = inc.Delete(u, v)
		}
		if err != nil {
			t.Fatal(err)
		}
		added, removed := graphtest.DiffEdges(before, inc.Edges())
		if !edgesEqual(d.Added, added) || !edgesEqual(d.Removed, removed) {
			t.Fatalf("step %d: delta +%v -%v, Edges() diff +%v -%v", step, d.Added, d.Removed, added, removed)
		}
		if inc.HM() != len(inc.Edges()) {
			t.Fatalf("step %d: HM=%d, Edges has %d", step, inc.HM(), len(inc.Edges()))
		}
		if inc.Rebuilds() != 0 {
			t.Fatalf("step %d: Rebuilds = %d, want 0", step, inc.Rebuilds())
		}
		sawNoop = sawNoop || !applied
		sawChange = sawChange || !d.Empty()
		if !applied && !d.Empty() {
			t.Fatalf("step %d: no-op reported delta %+v", step, d)
		}
	}
	if !sawNoop || !sawChange {
		t.Fatalf("coverage noop=%v change=%v", sawNoop, sawChange)
	}
}
