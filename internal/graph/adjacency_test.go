package graph_test

import (
	"testing"

	"repro/internal/check"
	"repro/internal/graph"
	"repro/internal/rng"
)

// assertStrictWindows fails unless every adjacency window of g is
// strictly increasing — the invariant HasEdge's binary search and the
// neighborhood merges rely on, which fromSortedEdges now gets from the
// edge order alone, without sorting each window.
func assertStrictWindows(t *testing.T, what string, g *graph.Graph) {
	t.Helper()
	for v := int32(0); v < int32(g.N()); v++ {
		nbrs := g.Neighbors(v)
		for i := 1; i < len(nbrs); i++ {
			if nbrs[i-1] >= nbrs[i] {
				t.Fatalf("%s: window of %d not strictly increasing: %v", what, v, nbrs)
			}
		}
	}
}

// Every constructor path — FromEdges, Builder.Build, Builder.BuildDedup
// and DynGraph.Snapshot — yields strictly increasing windows on every
// generator family, from edges fed in scrambled order and orientation.
func TestAdjacencyWindowsSortedAllFamilies(t *testing.T) {
	for _, f := range check.Families() {
		g := f.Build(rng.New(1), false)
		n := g.N()
		assertStrictWindows(t, f.Name+"/generator", g)

		r := rng.New(7)
		edges := append([]graph.Edge(nil), g.Edges()...)
		for i := len(edges) - 1; i > 0; i-- {
			j := r.Intn(i + 1)
			edges[i], edges[j] = edges[j], edges[i]
		}
		assertStrictWindows(t, f.Name+"/FromEdges", graph.FromEdges(n, edges))

		b := graph.NewBuilder(n)
		dup := graph.NewBuilder(n)
		for i, e := range edges {
			if i%2 == 1 {
				e.U, e.V = e.V, e.U
			}
			b.AddEdge(e.U, e.V)
			dup.AddEdge(e.U, e.V)
			dup.AddEdge(e.V, e.U)
		}
		built, err := b.Build()
		if err != nil {
			t.Fatalf("%s: Build: %v", f.Name, err)
		}
		assertStrictWindows(t, f.Name+"/Build", built)
		assertStrictWindows(t, f.Name+"/BuildDedup", dup.BuildDedup())

		d := graph.NewDynGraph(g)
		for step := 0; step < 4*n; step++ {
			u, v := int32(r.Intn(n)), int32(r.Intn(n))
			if u == v {
				continue
			}
			var err error
			if r.Bernoulli(0.5) {
				_, err = d.Insert(u, v)
			} else {
				_, err = d.Delete(u, v)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		assertStrictWindows(t, f.Name+"/Snapshot", d.Snapshot())
	}
}
