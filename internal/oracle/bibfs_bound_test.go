package oracle_test

import (
	"testing"

	"repro/internal/check"
	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/rng"
)

// TestBoundPruningKeepsAnswersExact pins that seeding the bidirectional
// search with a realized upper bound changes work only: on every check
// family, for every pair, the search answers the same with the landmark
// bound (1 and 4 landmarks), with the exact distance as the bound (the
// tightest a bound can be), and with no bound at all.
func TestBoundPruningKeepsAnswersExact(t *testing.T) {
	for _, f := range check.Families() {
		g := f.Build(rng.New(7), false)
		n := int32(g.N())
		bounds := []func(u, v int32) int32{
			oracle.LandmarkBounds(g, 1, 3),
			oracle.LandmarkBounds(g, 4, 3),
		}
		for u := int32(0); u < n; u++ {
			ref := g.BFS(u)
			for v := int32(0); v < n; v++ {
				if u == v {
					continue
				}
				free := oracle.BiDistance(g, u, v, graph.Unreachable)
				if free != ref[v] {
					t.Fatalf("%s (%d,%d): unbounded search %d, BFS %d", f.Name, u, v, free, ref[v])
				}
				if d := oracle.BiDistance(g, u, v, ref[v]); d != free {
					t.Fatalf("%s (%d,%d): search bounded by the exact distance %d answered %d",
						f.Name, u, v, ref[v], d)
				}
				for k, bound := range bounds {
					ub := bound(u, v)
					if d := oracle.BiDistance(g, u, v, ub); d != free {
						t.Fatalf("%s (%d,%d): search with landmark bound %d (table %d) answered %d, unbounded %d",
							f.Name, u, v, ub, k, d, free)
					}
				}
			}
		}
	}
}
