package oracle

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// These tests pin the two bidirectional-search behaviors the differential
// harness was built to interrogate: the stopping rule when the frontiers
// touch exactly at the cutoff, and the Unreachable sentinel on
// disconnected graphs. The sweep found no divergence — the stopping rule
// `depthU+depthV >= best-1` is sound — and these seed-pinned sweeps keep
// it that way.

// exactDistContract sweeps every pair of g through an oracle and asserts
// that every answer is exact and equals a plain BFS reference.
func exactDistContract(t *testing.T, g *graph.Graph, seed uint64) {
	t.Helper()
	o, err := NewFromGraphs(g, g, 3, Options{
		Landmarks: 3, Seed: seed, CacheSize: -1, SampleEvery: -1,
	})
	if err != nil {
		t.Fatalf("NewFromGraphs: %v", err)
	}
	n := int32(g.N())
	for u := int32(0); u < n; u++ {
		ref := g.BFS(u)
		for v := int32(0); v < n; v++ {
			a, err := o.Dist(u, v)
			if err != nil {
				t.Fatalf("Dist(%d,%d): %v", u, v, err)
			}
			if !a.Exact || a.Dist != ref[v] {
				t.Fatalf("Dist(%d,%d) = %d exact=%v, BFS says %d (seed=%d)",
					u, v, a.Dist, a.Exact, ref[v], seed)
			}
		}
	}
}

// TestBoundedSearchMeetingAtBound drives the frontiers to touch exactly
// at the stopping cutoff: on a cycle and a path, pairs sit at every
// distance up to n/2 (and n-1), so the `depthU+depthV >= best-1` cutoff
// is exercised on both sides of every meeting depth. Structured graphs,
// no randomness — any stopping-rule off-by-one fails deterministically.
func TestBoundedSearchMeetingAtBound(t *testing.T) {
	exactDistContract(t, gen.Cycle(24), 9)
	exactDistContract(t, gen.Path(20), 9)
	// Odd-distance meeting points (frontier levels of unequal depth).
	exactDistContract(t, gen.Cycle(25), 9)
}

// TestDisconnectedSentinelPinnedSeeds sweeps sub-threshold Erdős–Rényi
// graphs — the family whose isolated vertices and small components make
// the Unreachable sentinel easy to get wrong. The seeds are pinned: each
// produced a disconnected graph when this test was written, and the
// sweep asserts on every pair that disconnected answers are exact
// Unreachable once the frontier genuinely empties.
func TestDisconnectedSentinelPinnedSeeds(t *testing.T) {
	for _, seed := range []uint64{1, 4, 7, 1002} {
		g := gen.ErdosRenyi(48, 1.2/48.0, rng.New(seed))
		if g.Connected() {
			t.Fatalf("seed %d no longer yields a disconnected graph; re-pin the seed", seed)
		}
		exactDistContract(t, g, seed)
	}
}
