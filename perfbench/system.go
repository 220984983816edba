package main

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/server"
	"repro/internal/wire"
)

// system is one built serving stack, reachable over loopback TCP at addr.
type system struct {
	g, h    *graph.Graph
	dc      *core.DCSpanner  // the Theorem 2 spanner; nil for churn
	oracles []*oracle.Oracle // every oracle answering traffic
	addr    string
	// Set-up phases: graph generation, spanner build, backend build.
	gen, span, back time.Duration
	stops           []func()
}

// close stops everything the set-up started, last started first.
func (s *system) close() {
	for i := len(s.stops) - 1; i >= 0; i-- {
		s.stops[i]()
	}
}

// serveTCP serves srv on a fresh loopback listener until the returned
// stop function is called; stop returns once the serve loop has drained.
func serveTCP(srv *server.Server) (string, func(), error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, fmt.Errorf("listen: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, l) }()
	return l.Addr().String(), func() { cancel(); <-done }, nil
}

// setupStats holds one sample per set-up repetition, and the speed gauge
// taken between them.
type setupStats struct {
	total           []float64 // s, graph generation until the first answer
	gen, span, back []float64 // ms, the phases
	gauge           speedGauge
}

// setupReps builds the system k times from the same inputs and keeps the
// last one. Set-up of the small workloads takes tens of milliseconds, so
// one sample would be mostly noise; the median of k is steady. Each
// repetition starts right after a collection, so the garbage the one
// before left does not decide when the collector interrupts it.
func setupReps(k int, build func() (*system, error)) (*system, setupStats, error) {
	var st setupStats
	for i := 0; i < k; i++ {
		runtime.GC()
		t0 := time.Now()
		sys, err := build()
		if err != nil {
			return nil, st, err
		}
		c, err := wire.Dial(sys.addr, wire.ClientOptions{})
		if err == nil {
			_, err = c.Dist(0, 1)
			c.Close()
		}
		total := time.Since(t0)
		if err != nil {
			sys.close()
			return nil, st, fmt.Errorf("first answer: %w", err)
		}
		st.total = append(st.total, total.Seconds())
		st.gen = append(st.gen, ms(sys.gen))
		st.span = append(st.span, ms(sys.span))
		st.back = append(st.back, ms(sys.back))
		takeGauge(&st.gauge)
		if i < k-1 {
			sys.close()
		} else {
			return sys, st, nil
		}
	}
	return nil, st, fmt.Errorf("no set-up repetitions")
}

// rebuildReps times k rebuilds of the spanner and the backends over g:
// what a static server pays to take a changed graph. It returns µs of
// process CPU time, the clock every CPU-bound operation of milliseconds or
// more is timed on (see openLoopUpdates).
func rebuildReps(k int, g *graph.Graph, seed uint64, opts oracle.Options, backends int) ([]float64, error) {
	out := make([]float64, 0, k)
	for i := 0; i < k; i++ {
		runtime.GC()
		cpu := processCPU()
		dc, err := core.Build(g, core.Options{Algorithm: core.AlgoExpander, Seed: seed})
		if err != nil {
			return nil, err
		}
		for j := 0; j < backends; j++ {
			if _, err := oracle.New(dc, opts); err != nil {
				return nil, err
			}
		}
		out = append(out, us(processCPU()-cpu))
	}
	return out, nil
}

// dialAll opens k load connections to addr.
func dialAll(addr string, k int) ([]*wire.Client, error) {
	var cs []*wire.Client
	for i := 0; i < k; i++ {
		c, err := wire.Dial(addr, wire.ClientOptions{})
		if err != nil {
			closeAll(cs)
			return nil, err
		}
		cs = append(cs, c)
	}
	return cs, nil
}

func closeAll(cs []*wire.Client) {
	for _, c := range cs {
		c.Close()
	}
}

// apsp holds the expected answers: hop distances on the served spanner H
// from one plain BFS per source, an independent route to the numbers the
// backends under test produce. 255 marks an unreachable pair.
type apsp struct {
	n int
	d []uint8
}

func newAPSP(h *graph.Graph) (*apsp, error) {
	n := h.N()
	e := &apsp{n: n, d: make([]uint8, n*n)}
	for s := 0; s < n; s++ {
		for v, x := range h.BFS(int32(s)) {
			switch {
			case x == graph.Unreachable:
				e.d[s*n+v] = 255
			case x >= 255:
				return nil, fmt.Errorf("expected answers: distance %d does not fit the table", x)
			default:
				e.d[s*n+v] = uint8(x)
			}
		}
	}
	return e, nil
}

func (e *apsp) want(u, v int32) int32 {
	d := e.d[int(u)*e.n+int(v)]
	if d == 255 {
		return graph.Unreachable
	}
	return int32(d)
}

// check reports whether a is the exact answer to (u, v).
func (e *apsp) check(a oracle.Answer, u, v int32) bool {
	return a.U == u && a.V == v && a.Exact && a.Dist == e.want(u, v)
}

// edgeHash is the FNV-1a digest of a canonical edge list, 4 little-endian
// bytes per endpoint: the same digest oracle.SnapshotInfo reports, so a
// state the benchmark tracks can be compared with the server's.
func edgeHash(edges []graph.Edge) uint64 {
	h := uint64(14695981039346656037)
	mix := func(x uint32) {
		for i := 0; i < 4; i++ {
			h ^= uint64(byte(x >> (8 * i)))
			h *= 1099511628211
		}
	}
	for _, e := range edges {
		mix(uint32(e.U))
		mix(uint32(e.V))
	}
	return h
}

// sortedEdges returns a lexicographically sorted copy of edges, each
// already U < V: the canonical order edgeHash expects.
func sortedEdges(edges []graph.Edge) []graph.Edge {
	out := append([]graph.Edge(nil), edges...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}
