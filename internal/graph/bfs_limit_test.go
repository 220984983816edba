package graph

import (
	"reflect"
	"testing"
)

// starGraph returns a star with center 0 and leaves 1..n-1.
func starGraph(n int) *Graph {
	b := NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(0, int32(i))
	}
	return b.BuildDedup()
}

// The depth-limited bfsInto must stop scanning the queue at the first
// vertex at the limit level: queue distances are monotone, so everything
// after it is at or past the limit too. Before the fix the loop
// `continue`d through every remaining queued vertex, scanning all n
// entries; with the break it scans exactly 2 (center + first leaf).
func TestBFSIntoBreaksAtLimitLevel(t *testing.T) {
	const n = 1000
	g := starGraph(n)
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = Unreachable
	}
	scanned := g.bfsInto(0, 1, dist, nil)
	if scanned > 2 {
		t.Fatalf("limit-1 BFS on a %d-leaf star scanned %d queue entries, want <= 2", n-1, scanned)
	}
	// Distances must still be the full limit-1 ball.
	if dist[0] != 0 {
		t.Fatalf("dist[0] = %d, want 0", dist[0])
	}
	for v := 1; v < n; v++ {
		if dist[v] != 1 {
			t.Fatalf("dist[%d] = %d, want 1", v, dist[v])
		}
	}

	// Unlimited BFS still scans the whole component.
	for i := range dist {
		dist[i] = Unreachable
	}
	if scanned := g.bfsInto(0, -1, dist, nil); scanned != n {
		t.Fatalf("unlimited BFS scanned %d entries, want %d", scanned, n)
	}
}

// BFSWithin must agree with BFS restricted to the limit ball — the break
// must not drop vertices at exactly the limit level.
func TestBFSWithinMatchesTruncatedBFS(t *testing.T) {
	g := randomKernelGraph(150, 500, 33)
	full := g.BFS(7)
	for _, limit := range []int32{0, 1, 2, 3} {
		got := g.BFSWithin(7, limit)
		for v := range full {
			want := full[v]
			if want > limit {
				want = Unreachable
			}
			if got[v] != want {
				t.Fatalf("limit %d vertex %d: got %d want %d", limit, v, got[v], want)
			}
		}
	}
}

// Regression for the PathWithin capacity panic: limit == -1 used to size
// the path slice with capacity limit+1 == 0 (harmless but undersized), and
// any other negative "unlimited" limit panicked with a negative capacity.
func TestPathWithinUnlimitedReconstruction(t *testing.T) {
	// Path graph 0-1-...-9: the unique shortest path has 10 vertices.
	n := 10
	b := NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(int32(i), int32(i+1))
	}
	g := b.BuildDedup()
	s := NewBFSScratch(n)
	parent := make([]int32, n)
	want := make([]int32, n)
	for i := range want {
		want[i] = int32(i)
	}
	for _, limit := range []int32{-1, -5, int32(n)} {
		got := s.PathWithin(g, 0, int32(n-1), limit, parent)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("limit %d: path %v, want %v", limit, got, want)
		}
	}
	// Too-tight limit: no path.
	if got := s.PathWithin(g, 0, int32(n-1), 3, parent); got != nil {
		t.Fatalf("limit 3: path %v, want nil", got)
	}
	// Disconnected target: nil even unlimited.
	b2 := NewBuilder(3)
	b2.AddEdge(0, 1)
	g2 := b2.BuildDedup()
	s2 := NewBFSScratch(3)
	if got := s2.PathWithin(g2, 0, 2, -1, make([]int32, 3)); got != nil {
		t.Fatalf("disconnected: path %v, want nil", got)
	}
}

// WithinThreeHops must agree with the depth-3 BFS it replaces on every
// ordered pair, u == v included, on graphs where every distance from 0 to
// beyond 3 (and unreachable) occurs: a long path, a cycle, a star, and a
// graph of two components.
func TestWithinThreeHopsMatchesDistWithin(t *testing.T) {
	path := NewBuilder(12)
	cycle := NewBuilder(9)
	for i := int32(0); i < 11; i++ {
		path.AddEdge(i, i+1)
	}
	for i := int32(0); i < 9; i++ {
		cycle.AddEdge(i, (i+1)%9)
	}
	split := NewBuilder(8)
	for _, e := range [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {4, 5}, {5, 6}, {6, 7}} {
		split.AddEdge(e[0], e[1])
	}
	for _, g := range []*Graph{path.MustBuild(), cycle.MustBuild(), starGraph(7), split.MustBuild()} {
		s := NewBFSScratch(g.N())
		n := int32(g.N())
		for u := int32(0); u < n; u++ {
			for v := int32(0); v < n; v++ {
				want := s.DistWithin(g, u, v, 3) != Unreachable
				if got := s.WithinThreeHops(g, u, v); got != want {
					t.Fatalf("%v (%d,%d): WithinThreeHops=%v, DistWithin(3) reachable=%v", g, u, v, got, want)
				}
			}
		}
	}
}
