package main

import (
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/rng"
	"repro/internal/wire"
)

// requestFn generates one request from r, sends it on c, checks the
// answers into t, and returns the round-trip time and the number of
// queries answered. parent and req tie its spans to the request's root.
// A non-nil error is a transport failure that ends the connection's loop.
type requestFn func(c *wire.Client, r *rng.RNG, sh *spanShard, parent int32, req uint64, t *tally) (time.Duration, int, error)

// loadStats is what a load phase measured.
type loadStats struct {
	lat      hist // µs per request
	gaps     hist // µs between a connection's successive answers
	conns    int
	queries  int64
	requests int64
	t        tally
}

// keepShare is the share of requests and answer gaps the mean latency and
// the throughput keep. The rest, the slowest 1%, hold the stalls in which
// the host did not run the process: on a shared host a stall lasts
// milliseconds and lands on about one request in a thousand, yet stalls
// took up to a third of the wall time of a run and made wall-clock
// throughput swing by a quarter between runs of the same code.
const keepShare = 0.99

// queriesPerSecond is the closed-loop throughput: each connection answers
// a request's queries per mean gap between its successive answers.
func (ls *loadStats) queriesPerSecond() float64 {
	gap := ls.gaps.trimmedMean(keepShare)
	if gap == 0 {
		return 0
	}
	perRequest := float64(ls.queries) / float64(ls.requests)
	return float64(ls.conns) * perRequest * 1e6 / gap
}

// closedLoop runs one goroutine per client, each sending its next request
// when the previous one completes, until d has passed, the connection has
// sent limit requests (when limit > 0), or, traced, its span shard is
// full. Each connection draws its requests from its own stream of seed,
// so the inputs depend on the seed alone.
func closedLoop(clients []*wire.Client, seed uint64, d time.Duration, limit int64, rec *recorder, fn requestFn) loadStats {
	parts := make([]loadStats, len(clients))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *wire.Client) {
			defer wg.Done()
			r := rng.New(seed ^ (uint64(i+1) * 0x9e3779b97f4a7c15))
			sh := rec.shard()
			p := &parts[i]
			prev := start
			for req := uint64(i+1) << 40; time.Now().Before(deadline) && !sh.full() && (limit <= 0 || p.requests < limit); req++ {
				root := sh.begin("client.request", -1, req)
				lat, q, err := fn(c, r, sh, root, req, &p.t)
				sh.end(root)
				if err != nil {
					return
				}
				now := time.Now()
				p.lat.add(us(lat))
				p.gaps.add(us(now.Sub(prev)))
				prev = now
				p.queries += int64(q)
				p.requests++
			}
		}(i, c)
	}
	wg.Wait()
	out := loadStats{conns: len(clients)}
	for i := range parts {
		out.merge(&parts[i])
	}
	return out
}

// merge folds o's samples and counts into ls.
func (ls *loadStats) merge(o *loadStats) {
	ls.lat.merge(&o.lat)
	ls.gaps.merge(&o.gaps)
	ls.queries += o.queries
	ls.requests += o.requests
	ls.t.merge(o.t)
}

// pointRequest sends one dist frame with uniform endpoints. A nil exp
// skips the answer check (warm-up, before the expected answers exist).
func pointRequest(n int, exp *apsp) requestFn {
	return func(c *wire.Client, r *rng.RNG, sh *spanShard, parent int32, req uint64, t *tally) (time.Duration, int, error) {
		u, v := int32(r.Intn(n)), int32(r.Intn(n))
		t0 := time.Now()
		s := sh.begin("wire.dist", parent, req)
		a, err := c.Dist(u, v)
		sh.end(s)
		lat := time.Since(t0)
		if err != nil {
			t.add(false, "dist %d %d: %v", u, v, err)
			return lat, 0, err
		}
		if exp != nil && !t.check(exp.check(a, u, v)) {
			t.note("dist %d %d answered %+v, want %d", u, v, a, exp.want(u, v))
		}
		return lat, 1, nil
	}
}

// zipfPairs draws query endpoints from Zipf(s) over a seed-fixed
// permutation of the vertices, so hot vertices are spread over the graph.
type zipfPairs struct {
	z    *rng.Zipf
	perm []int32
}

func newZipfPairs(n int, s float64, seed uint64) *zipfPairs {
	p := rng.New(seed ^ 0x21bf).Perm(n)
	zp := &zipfPairs{z: rng.NewZipf(s, n), perm: make([]int32, n)}
	for i, v := range p {
		zp.perm[i] = int32(v)
	}
	return zp
}

func (zp *zipfPairs) batch(r *rng.RNG, qs []oracle.Query) {
	for i := range qs {
		qs[i] = oracle.Query{U: zp.perm[zp.z.Sample(r)], V: zp.perm[zp.z.Sample(r)]}
	}
}

// batchRequest sends one batch frame of size queries with Zipf endpoints.
func batchRequest(zp *zipfPairs, size int, exp *apsp) requestFn {
	return func(c *wire.Client, r *rng.RNG, sh *spanShard, parent int32, req uint64, t *tally) (time.Duration, int, error) {
		qs := make([]oracle.Query, size)
		zp.batch(r, qs)
		t0 := time.Now()
		s := sh.begin("wire.batch", parent, req)
		as, err := c.Batch(qs)
		sh.end(s)
		lat := time.Since(t0)
		if err != nil {
			t.add(false, "batch: %v", err)
			return lat, 0, err
		}
		if exp == nil {
			return lat, len(as), nil
		}
		if len(as) != len(qs) {
			t.add(false, "batch of %d answered %d", len(qs), len(as))
			return lat, 0, nil
		}
		for i, q := range qs {
			if !t.check(exp.check(as[i], q.U, q.V)) {
				t.note("batch query %d %d answered %+v, want %d", q.U, q.V, as[i], exp.want(q.U, q.V))
			}
		}
		return lat, len(as), nil
	}
}

// edgeStream is the churn update stream: it alternates deleting a present
// edge with inserting an absent pair, so the edge count stays steady and
// no update is a no-op. It tracks the edge set it leads to.
type edgeStream struct {
	r     *rng.RNG
	n     int
	edges []graph.Edge
	index map[graph.Edge]int
	del   bool
}

type update struct {
	u, v int32
	add  bool
}

func newEdgeStream(g *graph.Graph, seed uint64) *edgeStream {
	st := &edgeStream{r: rng.New(seed ^ 0x0bd7), n: g.N(), index: make(map[graph.Edge]int, g.M()), del: true}
	for _, e := range g.Edges() {
		e = e.Normalize()
		st.index[e] = len(st.edges)
		st.edges = append(st.edges, e)
	}
	return st
}

func (st *edgeStream) next() update {
	defer func() { st.del = !st.del }()
	if st.del {
		i := st.r.Intn(len(st.edges))
		e := st.edges[i]
		last := st.edges[len(st.edges)-1]
		st.edges[i] = last
		st.index[last] = i
		st.edges = st.edges[:len(st.edges)-1]
		delete(st.index, e)
		return update{e.U, e.V, false}
	}
	for {
		e := graph.Edge{U: int32(st.r.Intn(st.n)), V: int32(st.r.Intn(st.n))}
		if e.U == e.V {
			continue
		}
		e = e.Normalize()
		if _, ok := st.index[e]; ok {
			continue
		}
		st.index[e] = len(st.edges)
		st.edges = append(st.edges, e)
		return update{e.U, e.V, true}
	}
}

// warmUp sends perConn requests on each client, untimed: a fixed count
// rather than a fixed time, so the state the timed window starts from does
// not depend on how fast the host ran the warm-up.
func warmUp(clients []*wire.Client, seed uint64, perConn int64, fn requestFn) {
	closedLoop(clients, seed, time.Minute, perConn, nil, fn)
}

// updateLoad is what the open-loop updater measured.
type updateLoad struct {
	lat   hist       // process CPU µs from sending an update to its reply
	late  []float64  // ms the send ran behind its schedule
	gauge speedGauge // taken after each reply
	sent  []update   // every update sent, in order
	t     tally
}

// openLoopUpdates sends st's updates on c at rate per second from start
// until d has passed, on schedule whatever the replies take. Each update
// is timed on the process CPU clock, from its send to its reply: an
// update holds the engine's lock for milliseconds of CPU work, and on a
// shared host its wall time doubled whenever the host ran another tenant
// meanwhile, which moved the p90 by up to 90% between runs of the same
// code. How late each send ran is kept apart. After each reply the
// updater samples the speed gauge, which spreads its samples over the
// window.
func openLoopUpdates(c *wire.Client, st *edgeStream, rate float64, start time.Time, d time.Duration, sh *spanShard) updateLoad {
	var ul updateLoad
	period := time.Duration(float64(time.Second) / rate)
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * period)
		if due.Sub(start) >= d {
			return ul
		}
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		up := st.next()
		req := uint64(i)
		sent, cpu := time.Now(), processCPU()
		s := sh.begin("wire.update", -1, req)
		res, err := c.Update(up.u, up.v, up.add)
		sh.end(s)
		ul.lat.add(us(processCPU() - cpu))
		ul.late = append(ul.late, ms(sent.Sub(due)))
		ul.sent = append(ul.sent, up)
		ul.gauge.take()
		if err != nil {
			ul.t.add(false, "update %+v: %v", up, err)
			return ul
		}
		ul.t.add(res.Applied && res.M == len(st.edges), "update %+v: applied=%v m=%d, want applied m=%d", up, res.Applied, res.M, len(st.edges))
	}
}
