package main

import (
	"fmt"
	"os"
	"time"
)

// The end-to-end times are reported at a reference host speed. On the
// shared 2-vCPU host (Intel Xeon, Linux, Go 1.24) where this benchmark
// was tuned, the speed moved between a fast and a slow phase: within a
// run every few seconds, and for minutes at a time between runs.
// In the slow phase a point request took 16.5 µs instead of 11.5 µs, a
// rebuild 19 ms instead of 13 ms, and between two sets of ten runs half an
// hour apart churn's mean request went from 17.5 µs to 9.4 µs and
// reproduce's construction step from 1.25 s to 0.82 s. A register-only
// spin kernel ran at nearly the same speed in both phases; a
// breadth-first search over a small fixed graph, whose memory accesses
// and branches are like the workloads', slowed with them (per second of a
// point run: 178–234 µs beside requests of 11.2–12.1 µs, 258–302 µs
// beside 16.5–18.6 µs).
//
// So each run times that search, the speed gauge, at points spread over
// what it measures, and scales every time by gaugeRefUs over the gauge's
// mean: a figure then reads what it would on a host where the search
// takes gaugeRefUs. A change to the program moves the figure; a change of
// phase moves the figure and the gauge together. The gauge's own mean is
// reported with the per-layer metrics as host.speed_gauge_us.
const gaugeRefUs = 250

// gaugeGraph is the gauge's input: 4096 vertices, each with 16 arcs to
// vertices drawn by a fixed xorshift stream, in compressed rows. It is
// the same on every run and does not depend on the code under test.
var gaugeGraph = func() (g struct{ off, adj []int32 }) {
	const n, d = 4096, 16
	x := uint64(88172645463325252)
	g.off = make([]int32, n+1)
	g.adj = make([]int32, 0, n*d)
	for v := 0; v < n; v++ {
		for j := 0; j < d; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			g.adj = append(g.adj, int32(x%n))
		}
		g.off[v+1] = int32(len(g.adj))
	}
	return g
}()

// speedGauge collects gauge samples, in µs.
type speedGauge struct {
	samples     []float64
	dist, queue []int32
}

// take runs the gauge's search once and records its time.
func (s *speedGauge) take() {
	n := len(gaugeGraph.off) - 1
	if s.dist == nil {
		s.dist, s.queue = make([]int32, n), make([]int32, 0, n)
	}
	t0 := time.Now()
	for i := range s.dist {
		s.dist[i] = -1
	}
	s.dist[0] = 0
	q := append(s.queue[:0], 0)
	for h := 0; h < len(q); h++ {
		u := q[h]
		for _, w := range gaugeGraph.adj[gaugeGraph.off[u]:gaugeGraph.off[u+1]] {
			if s.dist[w] < 0 {
				s.dist[w] = s.dist[u] + 1
				q = append(q, w)
			}
		}
	}
	s.samples = append(s.samples, us(time.Since(t0)))
	s.queue = q
}

// takeGauge samples g a few times in a row, at one point of a run.
func takeGauge(g *speedGauge) {
	for i := 0; i < 3; i++ {
		g.take()
	}
}

// mean is the mean sample, leaving out samples over three times the
// median: searches the host stopped running for a while. It is 0 without
// samples.
func (s *speedGauge) mean() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	limit := 3 * median(append([]float64(nil), s.samples...))
	var kept []float64
	for _, x := range s.samples {
		if x <= limit {
			kept = append(kept, x)
		}
	}
	return mean(kept)
}

// scale is the factor that brings a time measured beside the gauge's
// samples to the reference speed: gaugeRefUs over the gauge's mean, or 1
// without samples.
func (s *speedGauge) scale() float64 {
	if m := s.mean(); m > 0 {
		return gaugeRefUs / m
	}
	return 1
}

// note writes the gauge's mean and sample count to standard error, so a
// reader can recover the times as measured.
func (s *speedGauge) note(what string) {
	fmt.Fprintf(os.Stderr, "perfbench: speed gauge %s %.1f µs over %d samples\n", what, s.mean(), len(s.samples))
}
