// Command dcload drives a dcserve or dcrouter endpoint at load over the
// binary wire protocol and reports latency quantiles and throughput.
//
// Two loop modes:
//
//   - Closed loop (default, -rate 0): -conns connections each keep one
//     request in flight back to back; latency is pure service time and
//     throughput is what the target sustains at that concurrency.
//   - Open loop (-rate R): requests are paced at R requests/second
//     across the connection pool, and each request's latency is measured
//     from its *intended* start time, so queueing delay when the target
//     falls behind is charged to the target (no coordinated omission).
//
// The workload mixes batch sizes via -batch "size:weight,..." (size 1 is
// sent as a single dist frame, larger sizes as batch frames) and draws
// query endpoints from a Zipf(s) distribution over the target's vertex
// set (-zipf 0 is uniform) — skew concentrates load on hot vertices the
// way real traffic does, which exercises worker caches.
//
// Example:
//
//	dcload -addr 127.0.0.1:7070 -duration 10s -conns 8 -batch 1:1,16:1 -zipf 0.9
//
// Against a dynamic target (dcserve -dynamic), -updates R mixes edge
// mutations into the run: one dedicated connection issues R seeded
// insert/delete updates per second — a single connection so the mutation
// order (and thus the server's end state) is deterministic for a given
// seed — while the query pool races it. The run then closes with a
// verify snapshot and prints an "update consistency:" line; an
// inconsistent spanner (maintained != rebuilt from scratch) exits 1.
//
// dcload exits 1 if the run answers zero requests (the e2e smoke's
// assertion) or if more than 1% of requests error.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/wire"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "target address (dcserve or dcrouter)")
	duration := flag.Duration("duration", 10*time.Second, "run length")
	conns := flag.Int("conns", 4, "connection pool size (closed loop: in-flight requests)")
	rate := flag.Float64("rate", 0, "open-loop arrival rate in requests/sec (0 = closed loop)")
	zipfS := flag.Float64("zipf", 0, "Zipf skew of query endpoints (0 = uniform)")
	batchMix := flag.String("batch", "1:3,16:1", "batch-size mix as size:weight,...")
	seed := flag.Uint64("seed", 1, "workload RNG seed")
	traceN := flag.Int("trace", 0, "request sampling of every Nth request (sets the wire sampling bit; 0 disables)")
	updRate := flag.Float64("updates", 0, "edge mutations/sec on one dedicated connection (needs a dynamic target)")
	flag.Parse()

	mix, err := parseMix(*batchMix)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcload:", err)
		os.Exit(2)
	}
	if *conns < 1 {
		fmt.Fprintln(os.Stderr, "dcload: -conns must be >= 1")
		os.Exit(2)
	}

	// One probe connection discovers the serving shape.
	probe, err := wire.Dial(*addr, wire.ClientOptions{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcload:", err)
		os.Exit(1)
	}
	info, err := probe.Info()
	probe.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcload: info:", err)
		os.Exit(1)
	}
	if maxSize := mix.maxSize(); maxSize > info.MaxBatch {
		fmt.Fprintf(os.Stderr, "dcload: batch size %d exceeds the target's limit %d\n", maxSize, info.MaxBatch)
		os.Exit(2)
	}
	mode := "closed"
	if *rate > 0 {
		mode = fmt.Sprintf("open @ %.0f req/s", *rate)
	}
	fmt.Printf("target %s: n=%d maxbatch=%d | %s loop, %d conns, mix %s, zipf=%.2f, %v\n",
		*addr, info.N, info.MaxBatch, mode, *conns, *batchMix, *zipfS, *duration)

	clients := make([]*wire.Client, *conns)
	for i := range clients {
		c, err := wire.Dial(*addr, wire.ClientOptions{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "dcload: conn %d: %v\n", i, err)
			os.Exit(1)
		}
		defer c.Close()
		clients[i] = c
	}

	// The update stream gets its own dedicated connection: mutations on a
	// single pipelined connection apply in issue order, so the server's
	// end state is a deterministic function of (seed, rate, duration)
	// regardless of how the query pool is scheduled.
	var updConn *wire.Client
	var updSent, updApplied, updErrs atomic.Int64
	if *updRate > 0 {
		updConn, err = wire.Dial(*addr, wire.ClientOptions{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "dcload: update conn:", err)
			os.Exit(1)
		}
		defer updConn.Close()
	}

	lat := stats.NewLatencyHistogram()
	var answered, queries, errs, sent, traced atomic.Int64
	zipf := rng.NewZipf(*zipfS, info.N)
	deadline := time.Now().Add(*duration)

	// run issues one request on c and records it; latency is measured
	// from t0 (the intended start in open loop, the actual start in
	// closed loop). Every -trace'th request carries the wire sampling
	// bit; the server answers with the sampled bit set when it traced the
	// request.
	run := func(c *wire.Client, r *rng.RNG, t0 time.Time) {
		size := mix.pick(r)
		var tc wire.TraceContext
		if *traceN > 0 && sent.Add(1)%int64(*traceN) == 0 {
			tc = wire.SampledContext(obs.NewTraceID())
		}
		var rtc wire.TraceContext
		var err error
		if size == 1 {
			_, rtc, err = c.DistTraced(int32(zipf.Sample(r)), int32(zipf.Sample(r)), tc)
		} else {
			qs := make([]oracle.Query, size)
			for i := range qs {
				qs[i] = oracle.Query{U: int32(zipf.Sample(r)), V: int32(zipf.Sample(r))}
			}
			_, rtc, err = c.BatchTraced(qs, tc)
		}
		if err != nil {
			errs.Add(1)
			return
		}
		if rtc.Sampled() {
			traced.Add(1)
		}
		lat.Observe(time.Since(t0).Seconds())
		answered.Add(1)
		queries.Add(int64(size))
	}

	start := time.Now()
	var wg group
	if updConn != nil {
		// Paced updater. Endpoints are uniform (not Zipf): skewed
		// mutations would make the server's end state depend on the
		// query-skew knob. Self-pairs are skipped, not redrawn, so the
		// mutation sequence stays aligned with the tick count.
		wg.Go(func() {
			r := rng.New(*seed ^ 0xa5a5c3c3d1d1b7b7)
			interval := time.Duration(float64(time.Second) / *updRate)
			next := time.Now()
			for next.Before(deadline) {
				if d := time.Until(next); d > 0 {
					time.Sleep(d)
				}
				next = next.Add(interval)
				u, v := int32(r.Intn(info.N)), int32(r.Intn(info.N))
				if u == v {
					continue
				}
				res, uerr := updConn.Update(u, v, r.Bernoulli(0.5))
				updSent.Add(1)
				if uerr != nil {
					updErrs.Add(1)
					fmt.Fprintln(os.Stderr, "dcload: update:", uerr)
					return
				}
				if res.Applied {
					updApplied.Add(1)
				}
			}
		})
	}
	if *rate <= 0 {
		// Closed loop: each connection back to back.
		for i, c := range clients {
			wg.Go(func() {
				r := rng.New(*seed + uint64(i)*0x9e3779b97f4a7c15)
				for time.Now().Before(deadline) {
					if !c.Healthy() {
						return
					}
					run(c, r, time.Now())
				}
			})
		}
	} else {
		// Open loop: a pacer hands intended-start ticks to the pool.
		interval := time.Duration(float64(time.Second) / *rate)
		ticks := make(chan time.Time, 4**conns)
		wg.Go(func() {
			defer close(ticks)
			next := time.Now()
			for next.Before(deadline) {
				if d := time.Until(next); d > 0 {
					time.Sleep(d)
				}
				select {
				case ticks <- next:
				default:
					// The pool is saturated and the queue is full: the
					// request is dropped as an error — unbounded queues
					// would just hide the overload.
					errs.Add(1)
				}
				next = next.Add(interval)
			}
		})
		for i, c := range clients {
			wg.Go(func() {
				r := rng.New(*seed + uint64(i)*0x9e3779b97f4a7c15)
				for t0 := range ticks {
					if !c.Healthy() {
						return
					}
					run(c, r, t0)
				}
			})
		}
	}
	wg.Wait()
	elapsed := time.Since(start)

	b := lat.Buckets()
	n := answered.Load()
	fmt.Printf("answered %d requests (%d queries) with %d errors in %v\n", n, queries.Load(), errs.Load(), elapsed.Round(time.Millisecond))
	if *traceN > 0 {
		fmt.Printf("traced: %d requests confirmed sampled by the target\n", traced.Load())
	}
	fmt.Printf("throughput: %.0f req/s, %.0f queries/s\n",
		float64(n)/elapsed.Seconds(), float64(queries.Load())/elapsed.Seconds())
	fmt.Printf("latency: p50=%s p95=%s p99=%s p999=%s max=%s mean=%s\n",
		ms(b.Quantile(0.50)), ms(b.Quantile(0.95)), ms(b.Quantile(0.99)),
		ms(b.Quantile(0.999)), ms(b.Max), ms(b.Mean()))

	if updConn != nil {
		si, serr := updConn.Snap(true)
		if serr != nil {
			fmt.Fprintln(os.Stderr, "dcload: verify snapshot:", serr)
			os.Exit(1)
		}
		fmt.Printf("updates: sent=%d applied=%d errs=%d\n",
			updSent.Load(), updApplied.Load(), updErrs.Load())
		fmt.Printf("update consistency: seq=%d m=%d hm=%d verified=%t consistent=%t\n",
			si.Seq, si.M, si.HM, si.Verified, si.Consistent)
		if !si.Consistent {
			fmt.Fprintln(os.Stderr, "dcload: maintained spanner diverged from a from-scratch rebuild")
			os.Exit(1)
		}
		if updErrs.Load() > 0 {
			os.Exit(1)
		}
	}

	if n == 0 {
		fmt.Fprintln(os.Stderr, "dcload: zero answered requests")
		os.Exit(1)
	}
	if e := errs.Load(); e*100 > (n + e) {
		fmt.Fprintf(os.Stderr, "dcload: error rate %.1f%% exceeds 1%%\n", 100*float64(e)/float64(n+e))
		os.Exit(1)
	}
}

// group runs the load generator's goroutines (updater, pacer, load
// workers) under one graph.PanicRelay: Wait blocks until all of them have
// returned and then re-raises the first panic on the caller with the
// panicking goroutine's stack, the same contract as the worker pool.
type group struct {
	wg    sync.WaitGroup
	relay graph.PanicRelay
}

// Go starts fn on its own goroutine.
func (g *group) Go(fn func()) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		defer g.relay.Catch()
		fn()
	}()
}

// Wait waits for every started goroutine, then re-raises the first panic.
func (g *group) Wait() {
	g.wg.Wait()
	g.relay.Reraise()
}

func ms(sec float64) string {
	switch {
	case sec >= 1:
		return fmt.Sprintf("%.2fs", sec)
	case sec >= 1e-3:
		return fmt.Sprintf("%.2fms", sec*1e3)
	default:
		return fmt.Sprintf("%.1fµs", sec*1e6)
	}
}

// sizeMix is a weighted batch-size distribution.
type sizeMix struct {
	sizes  []int
	cum    []int // cumulative weights
	weight int
}

func parseMix(s string) (*sizeMix, error) {
	m := &sizeMix{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		sz, wt, ok := strings.Cut(part, ":")
		size, err1 := strconv.Atoi(sz)
		weight := 1
		var err2 error
		if ok {
			weight, err2 = strconv.Atoi(wt)
		}
		if err1 != nil || err2 != nil || size < 1 || weight < 1 {
			return nil, fmt.Errorf("bad -batch entry %q (want size:weight with both >= 1)", part)
		}
		m.sizes = append(m.sizes, size)
		m.weight += weight
		m.cum = append(m.cum, m.weight)
	}
	if len(m.sizes) == 0 {
		return nil, fmt.Errorf("empty -batch mix")
	}
	return m, nil
}

func (m *sizeMix) pick(r *rng.RNG) int {
	w := r.Intn(m.weight)
	i := sort.SearchInts(m.cum, w+1)
	return m.sizes[i]
}

func (m *sizeMix) maxSize() int {
	max := 0
	for _, s := range m.sizes {
		if s > max {
			max = s
		}
	}
	return max
}
