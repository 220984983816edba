package graph

import (
	"slices"
	"testing"

	"repro/internal/rng"
)

func dynTestBase() *Graph {
	// A 12-vertex graph with a mix of degrees: an 8-cycle with two chords
	// plus a 4-vertex tail.
	b := NewBuilder(12)
	for v := int32(0); v < 8; v++ {
		b.AddEdge(v, (v+1)%8)
	}
	b.AddEdge(0, 4)
	b.AddEdge(1, 5)
	b.AddEdge(7, 8)
	b.AddEdge(8, 9)
	b.AddEdge(9, 10)
	b.AddEdge(10, 11)
	return b.MustBuild()
}

func TestDynGraphMutationsAgainstReference(t *testing.T) {
	base := dynTestBase()
	d := NewDynGraph(base)
	ref := make(map[Edge]bool)
	for _, e := range base.Edges() {
		ref[e] = true
	}
	r := rng.New(42)
	wantSeq := uint64(0)
	for step := 0; step < 2000; step++ {
		u, v := int32(r.Intn(12)), int32(r.Intn(12))
		if u == v {
			continue
		}
		e := Edge{U: u, V: v}.Normalize()
		if r.Bernoulli(0.5) {
			applied, err := d.Insert(u, v)
			if err != nil {
				t.Fatal(err)
			}
			if applied != !ref[e] {
				t.Fatalf("step %d: Insert%v applied=%v with present=%v", step, e, applied, ref[e])
			}
			if applied {
				wantSeq++
				ref[e] = true
			}
		} else {
			applied, err := d.Delete(u, v)
			if err != nil {
				t.Fatal(err)
			}
			if applied != ref[e] {
				t.Fatalf("step %d: Delete%v applied=%v with present=%v", step, e, applied, ref[e])
			}
			if applied {
				wantSeq++
				delete(ref, e)
			}
		}
	}
	if d.Seq() != wantSeq {
		t.Fatalf("Seq = %d, want %d", d.Seq(), wantSeq)
	}
	if d.M() != len(ref) {
		t.Fatalf("M = %d, reference has %d edges", d.M(), len(ref))
	}
	for u := int32(0); u < 12; u++ {
		for v := int32(0); v < 12; v++ {
			if d.HasEdge(u, v) != ref[Edge{U: u, V: v}.Normalize()] && u != v {
				t.Fatalf("HasEdge(%d,%d) = %v disagrees with reference", u, v, d.HasEdge(u, v))
			}
		}
	}
}

// Snapshot must be canonical: equal edge sets snapshot identically
// regardless of mutation history, and the snapshot round-trips.
func TestDynGraphSnapshotCanonical(t *testing.T) {
	base := dynTestBase()
	d := NewDynGraph(base)
	if _, err := d.Insert(3, 9); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Delete(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Delete(3, 9); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Insert(0, 1); err != nil {
		t.Fatal(err)
	}
	snap := d.Snapshot()
	if snap.N() != base.N() || snap.M() != base.M() {
		t.Fatalf("round-trip snapshot is %v, want %v", snap, base)
	}
	be, se := base.Edges(), snap.Edges()
	for i := range be {
		if be[i] != se[i] {
			t.Fatalf("edge %d: %v != %v after a no-op mutation cycle", i, se[i], be[i])
		}
	}
	for v := int32(0); v < int32(snap.N()); v++ {
		bn, sn := base.Neighbors(v), snap.Neighbors(v)
		if len(bn) != len(sn) {
			t.Fatalf("vertex %d: degree %d != %d", v, len(sn), len(bn))
		}
		for i := range bn {
			if bn[i] != sn[i] {
				t.Fatalf("vertex %d adjacency differs at %d", v, i)
			}
		}
	}
	// Mutating the DynGraph must not alias the snapshot or the base.
	if _, err := d.Delete(0, 1); err != nil {
		t.Fatal(err)
	}
	if !snap.HasEdge(0, 1) || !base.HasEdge(0, 1) {
		t.Fatal("mutation after Snapshot leaked into immutable graphs")
	}
}

func TestDynGraphRejectsBadEndpoints(t *testing.T) {
	d := NewDynGraph(dynTestBase())
	for _, pair := range [][2]int32{{-1, 0}, {0, 12}, {5, 5}} {
		if _, err := d.Insert(pair[0], pair[1]); err == nil {
			t.Errorf("Insert(%d,%d) accepted", pair[0], pair[1])
		}
		if _, err := d.Delete(pair[0], pair[1]); err == nil {
			t.Errorf("Delete(%d,%d) accepted", pair[0], pair[1])
		}
	}
	if d.Seq() != 0 {
		t.Fatalf("rejected updates advanced Seq to %d", d.Seq())
	}
}

// dynChurn drives d through steps seeded random toggles.
func dynChurn(t *testing.T, d *DynGraph, seed uint64, steps int) {
	t.Helper()
	r := rng.New(seed)
	n := d.N()
	for step := 0; step < steps; step++ {
		u, v := int32(r.Intn(n)), int32(r.Intn(n))
		if u == v {
			continue
		}
		var err error
		if d.HasEdge(u, v) {
			_, err = d.Delete(u, v)
		} else {
			_, err = d.Insert(u, v)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// sameCSR compares two graphs array for array.
func sameCSR(a, b *Graph) bool {
	return a.n == b.n && a.m == b.m && slices.Equal(a.off, b.off) &&
		slices.Equal(a.adj, b.adj) && slices.Equal(a.edges, b.edges)
}

// The linear-copy Snapshot must produce exactly the CSR arrays a
// from-scratch FromEdges build of the same edge set produces.
func TestDynGraphSnapshotMatchesFromEdges(t *testing.T) {
	d := NewDynGraph(dynTestBase())
	for round := 0; round < 5; round++ {
		dynChurn(t, d, uint64(round)+100, 60)
		snap := d.Snapshot()
		want := FromEdges(d.N(), snap.Edges())
		if !sameCSR(snap, want) {
			t.Fatalf("round %d: Snapshot %+v differs from FromEdges rebuild %+v", round, snap, want)
		}
	}
	// The empty graph and an isolated-vertex tail survive the copy too.
	empty := NewDynGraph(NewBuilder(5).MustBuild()).Snapshot()
	if !sameCSR(empty, FromEdges(5, nil)) {
		t.Fatalf("empty Snapshot %+v differs from FromEdges", empty)
	}
}

// DynGraph.Dist answers every pair exactly like the snapshot's Dist,
// disconnected pairs included.
func TestDynGraphDistMatchesSnapshot(t *testing.T) {
	d := NewDynGraph(dynTestBase())
	for round := 0; round < 4; round++ {
		dynChurn(t, d, uint64(round)+200, 25)
		snap := d.Snapshot()
		for u := int32(0); u < int32(d.N()); u++ {
			for v := int32(0); v < int32(d.N()); v++ {
				if got, want := d.Dist(u, v), snap.Dist(u, v); got != want {
					t.Fatalf("round %d: Dist(%d,%d) = %d, snapshot says %d", round, u, v, got, want)
				}
			}
		}
	}
}
