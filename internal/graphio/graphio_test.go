package graphio

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

func TestEdgeListRoundTrip(t *testing.T) {
	g := gen.MustRandomRegular(40, 6, rng.New(1))
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.M() != g.M() {
		t.Fatalf("round trip changed shape: %v vs %v", g2, g)
	}
	for i, e := range g.Edges() {
		if g2.Edges()[i] != e {
			t.Fatalf("edge %d changed", i)
		}
	}
}

func TestReadEdgeListCommentsAndBlank(t *testing.T) {
	in := "# a comment\n\nn 4\n0 1\n# another\n2 3\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.M() != 2 {
		t.Fatalf("parsed %v", g)
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"",                              // missing header
		"0 1\n",                         // edge before header
		"n -3\n",                        // bad count
		"n 3\n0\n",                      // malformed edge
		"n 3\n0 9\n",                    // out of range
		"n 3\n-1 2\n",                   // negative vertex
		"n 3\n1 1\n",                    // self loop
		"n 3\n0 1\n1 0\n",               // duplicate
		"n x\n",                         // bad header value
		"header nonsense\n",             // bad header
		"n 3\n0 1 2\n",                  // too many fields
		"n 3\nzero one\n",               // non-numeric
		"n 3\n99999999999999999999 1\n", // beyond int64
	}
	for _, in := range cases {
		// The parser validates every edge before touching the builder, so
		// rejection is always an error, never a panic.
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("input %q accepted", in)
		}
	}
}

// TestReadEdgeListRejectsInt32Truncation pins the parser bug the
// differential harness flushed out: vertex ids were parsed with Atoi and
// cast to int32, so "4294967296 1" (2³²) silently truncated to the edge
// (0,1) on 64-bit platforms instead of being rejected.
func TestReadEdgeListRejectsInt32Truncation(t *testing.T) {
	for _, in := range []string{
		"n 2\n4294967296 1\n",  // 2^32 -> truncated to 0
		"n 2\n4294967297 1\n",  // 2^32+1 -> truncated to 1 (self-loop after truncation)
		"n 2\n0 8589934593\n",  // 2*2^32+1 -> truncated to 1
		"n 2\n-4294967295 1\n", // truncates to a positive in-range id
	} {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("input %q accepted: 64-bit vertex id truncated to int32", in)
		}
	}
}

// TestRoundTripDegenerateGraphs: the empty graph and the single-edge
// graph survive a write/read cycle unchanged.
func TestRoundTripDegenerateGraphs(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.NewBuilder(0).MustBuild(),
		graph.NewBuilder(3).MustBuild(), // vertices, no edges
		graph.FromEdges(2, []graph.Edge{{U: 0, V: 1}}),
	} {
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatalf("write: %v", err)
		}
		got, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("read back %d-vertex graph: %v", g.N(), err)
		}
		if got.N() != g.N() || got.M() != g.M() {
			t.Errorf("round trip changed shape: n %d->%d, m %d->%d", g.N(), got.N(), g.M(), got.M())
		}
	}
}

func TestWriteDOT(t *testing.T) {
	g := gen.Cycle(4)
	var buf bytes.Buffer
	if err := WriteDOT(&buf, g, "c4"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "graph \"c4\"") || !strings.Contains(out, "0 -- 1;") {
		t.Fatalf("DOT output:\n%s", out)
	}
	if strings.Count(out, "--") != 4 {
		t.Fatalf("expected 4 edges in DOT:\n%s", out)
	}
}

func TestWriteSpannerDOT(t *testing.T) {
	g := gen.Clique(4)
	h := g.FilterEdges(func(e graph.Edge) bool { return e.U == 0 })
	var buf bytes.Buffer
	if err := WriteSpannerDOT(&buf, g, h, "star"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Count(out, "style=dashed") != g.M()-h.M() {
		t.Fatalf("dashed count wrong:\n%s", out)
	}
}

func TestWriteSpannerDOTMismatch(t *testing.T) {
	if err := WriteSpannerDOT(&bytes.Buffer{}, gen.Cycle(4), gen.Cycle(5), "x"); err == nil {
		t.Fatal("accepted mismatched vertex counts")
	}
}

// deepEqualGraphs compares vertex count, edge list, and the full
// per-vertex adjacency structure (not just the edge slice, so a CSR
// construction bug would also be caught).
func deepEqualGraphs(a, b *graph.Graph) bool {
	if a.N() != b.N() || a.M() != b.M() {
		return false
	}
	for i, e := range a.Edges() {
		if b.Edges()[i] != e {
			return false
		}
	}
	for v := int32(0); v < int32(a.N()); v++ {
		na, nb := a.Neighbors(v), b.Neighbors(v)
		if len(na) != len(nb) {
			return false
		}
		for i := range na {
			if na[i] != nb[i] {
				return false
			}
		}
	}
	return true
}

// Property: write→read→deep-equal holds for arbitrary random graphs
// across the density spectrum, including edgeless and near-complete ones.
func TestPropertyRoundTrip(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(40)
		b := graph.NewBuilder(n)
		// Density varies from 0 to ~n² proposals across seeds.
		proposals := r.Intn(n*n + 1)
		for i := 0; i < proposals; i++ {
			u, v := int32(r.Intn(n)), int32(r.Intn(n))
			if u != v {
				b.AddEdge(u, v)
			}
		}
		g := b.BuildDedup()
		var buf bytes.Buffer
		if WriteEdgeList(&buf, g) != nil {
			return false
		}
		g2, err := ReadEdgeList(&buf)
		if err != nil {
			return false
		}
		return deepEqualGraphs(g, g2)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyRoundTripGenerators round-trips structured instances from
// the generator package (the graphs the CLIs actually exchange).
func TestPropertyRoundTripGenerators(t *testing.T) {
	graphs := []*graph.Graph{
		gen.MustRandomRegular(60, 8, rng.New(2)),
		gen.Margulis(6),
		gen.Hypercube(5),
		gen.Clique(12),
		gen.Cycle(17),
	}
	for i, g := range graphs {
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatalf("graph %d: %v", i, err)
		}
		g2, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("graph %d: %v", i, err)
		}
		if !deepEqualGraphs(g, g2) {
			t.Fatalf("graph %d: round trip not deep-equal", i)
		}
	}
}

// TestReadEdgeListRejectsHugeHeader: a header vertex count beyond
// MaxVertices must fail fast with a clear error instead of attempting the
// pre-allocation (or overflowing int32 vertex ids downstream).
func TestReadEdgeListRejectsHugeHeader(t *testing.T) {
	for _, in := range []string{
		"n 99999999999\n0 1\n", // would overflow int32 ids
		"n 134217729\n",        // MaxVertices + 1
	} {
		_, err := ReadEdgeList(strings.NewReader(in))
		if err == nil {
			t.Fatalf("header %q accepted", strings.SplitN(in, "\n", 2)[0])
		}
		if !strings.Contains(err.Error(), "MaxVertices") {
			t.Fatalf("header rejection should name MaxVertices, got: %v", err)
		}
	}
	// A count at the cap itself is in-contract (not asserted here: parsing
	// it allocates the full half-gigabyte CSR arrays, too heavy for the
	// unit suite); a modest header stays readable.
	g, err := ReadEdgeList(strings.NewReader("n 1000000\n"))
	if err != nil {
		t.Fatalf("large-but-legal header rejected: %v", err)
	}
	if g.N() != 1000000 || g.M() != 0 {
		t.Fatalf("header-only graph parsed as %v", g)
	}
}
