package spanner

import (
	"encoding/binary"
	"hash/fnv"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// edgeSetHash is FNV-1a over the canonical edge list (U then V, each a
// little-endian uint32), so two graphs hash equal iff their edge sets do.
func edgeSetHash(g *graph.Graph) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, e := range g.Edges() {
		binary.LittleEndian.PutUint32(buf[:4], uint32(e.U))
		binary.LittleEndian.PutUint32(buf[4:], uint32(e.V))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestRegularGolden pins Algorithm 1's output on three random-regular
// inputs: the spanner's edge set and the accounting of the census and
// detour phases. The values were recorded from the per-triple
// common-neighbor census and the BFS-based detour check, so any change to
// either kernel must reproduce them exactly. The third input puts (a, b)
// at the middle of its census distribution, so supported and unsupported
// edges both occur and both branches of the partition are pinned.
func TestRegularGolden(t *testing.T) {
	cases := []struct {
		name                                    string
		n, d                                    int
		graphSeed                               uint64
		opts                                    RegularOptions
		hash                                    uint64
		edges, supported, unsupported, noDetour int
	}{
		{
			name: "defaults", n: 300, d: 40, graphSeed: 1,
			opts: DefaultRegularOptions(11),
			hash: 0xd08a3f24019095fa, edges: 3451, supported: 6000, unsupported: 0, noDetour: 2550,
		},
		{
			name: "no-detour-repair", n: 256, d: 32, graphSeed: 2,
			opts: RegularOptions{AFrac: 0.5, C1: 0.25, EnsureDetour: false, Seed: 12},
			hash: 0x74d0024be327f5ab, edges: 629, supported: 4096, unsupported: 0, noDetour: 0,
		},
		{
			name: "median-thresholds", n: 256, d: 48, graphSeed: 3,
			opts: RegularOptions{SupportA: 8, SupportB: 32, EnsureDetour: true, Seed: 13},
			hash: 0x981141f526ca992b, edges: 4372, supported: 3379, unsupported: 2392, noDetour: 1174,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g := gen.MustRandomRegular(c.n, c.d, rng.New(c.graphSeed))
			res, err := BuildRegular(g, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			got := []int{res.Spanner.H.M(), res.SupportedCount, res.ReinsertedUnsupport, res.ReinsertedNoDetour}
			want := []int{c.edges, c.supported, c.unsupported, c.noDetour}
			if h := edgeSetHash(res.Spanner.H); h != c.hash || !slices.Equal(got, want) {
				t.Fatalf("hash=%#x [edges supported unsupported noDetour]=%v, want hash=%#x %v",
					h, got, c.hash, want)
			}
		})
	}
}
