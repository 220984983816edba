package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"

	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/rng"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/spanner"
	"repro/internal/wire"
)

// ladderQueries is the fixed query sample every serve-ladder rung answers.
const ladderQueries = 256

// ladders runs the serve ladder and the update ladder of a traced run on
// the workload's graph g and served spanner h. newOracle builds an oracle
// over h with the workload's options and a given stretch-sampling period;
// opts are those options, for the update ladder's live engine. ups is the
// update stream to replay (nil generates one) and served, when set, the
// state the serving engine reached after ups, which the replay must match.
func ladders(m map[string]metric, rec *recorder, t *tally, seed uint64, g, h *graph.Graph,
	newOracle func(sampleEvery int) (*oracle.Oracle, error), opts oracle.Options,
	ups []update, served *oracle.SnapshotInfo) error {
	if err := serveLadder(m, rec, t, seed, h.N(), newOracle); err != nil {
		return fmt.Errorf("serve ladder: %w", err)
	}
	if ups == nil {
		st := newEdgeStream(g, seed)
		for i := 0; i < 32; i++ {
			ups = append(ups, st.next())
		}
	}
	dopts := oracle.DynamicOptions{Spanner: spanner.IncrementalOptions{Seed: seed}, Oracle: opts}
	if err := updateLadder(m, rec, t, g, ups, dopts, served); err != nil {
		return fmt.Errorf("update ladder: %w", err)
	}
	return nil
}

// serveLadder answers one fixed query sample at every rung of the serving
// stack, from the backend behind Oracle.Dist up to the router's front
// door. Each rung's answers fold into a fingerprint; all must be equal.
// A layer's cost is its rung's time minus the rung below.
func serveLadder(m map[string]metric, rec *recorder, t *tally, seed uint64, n int, newOracle func(int) (*oracle.Oracle, error)) error {
	sh := rec.shard()
	r := rng.New(seed ^ 0x1add)
	qs := make([]oracle.Query, ladderQueries)
	for i := range qs {
		qs[i] = oracle.Query{U: int32(r.Intn(n)), V: int32(r.Intn(n))}
	}
	fold := func(as []oracle.Answer) uint64 {
		d := newDigest()
		for _, a := range as {
			d = d.u64(uint64(uint32(a.U))<<32 | uint64(uint32(a.V))).u64(uint64(uint32(a.Dist)))
		}
		return uint64(d)
	}
	var want uint64
	rungs := 0
	// rung times passes of pass, each answering the whole sample, and
	// returns the median pass time. Every pass must fold to the ladder's
	// fingerprint.
	rung := func(name string, passes int, pass func() ([]oracle.Answer, error)) (float64, error) {
		var ds []float64
		for i := 0; i < passes; i++ {
			s := sh.begin(name, -1, uint64(i))
			t0 := time.Now()
			as, err := pass()
			d := time.Since(t0)
			sh.end(s)
			if err != nil {
				return 0, fmt.Errorf("%s: %w", name, err)
			}
			fp := fold(as)
			if rungs == 0 && i == 0 {
				want = fp
			}
			if len(as) != len(qs) || fp != want {
				t.add(false, "serve ladder rung %s pass %d: fingerprint %x, want %x", name, i, fp, want)
				return 0, nil
			}
			ds = append(ds, float64(d))
		}
		rungs++
		return median(ds), nil
	}
	singles := func(dist func(u, v int32) (oracle.Answer, error)) func() ([]oracle.Answer, error) {
		return func() ([]oracle.Answer, error) {
			as := make([]oracle.Answer, len(qs))
			for i, q := range qs {
				a, err := dist(q.U, q.V)
				if err != nil {
					return nil, err
				}
				as[i] = a
			}
			return as, nil
		}
	}
	perQuery := func(d float64) float64 { return d / ladderQueries }

	plain, err := newOracle(-1)
	if err != nil {
		return err
	}
	o, err := newOracle(0)
	if err != nil {
		return err
	}
	d, err := rung("oracle.dist_nosample", 200, singles(plain.Dist))
	if err != nil {
		return err
	}
	m["oracle.dist_nosample_ns"] = metric{perQuery(d), "ns"}
	if d, err = rung("oracle.dist", 200, singles(o.Dist)); err != nil {
		return err
	}
	m["oracle.dist_ns"] = metric{perQuery(d), "ns"}
	if d, err = rung("oracle.batch", 200, func() ([]oracle.Answer, error) { return o.AnswerBatch(qs), nil }); err != nil {
		return err
	}
	m["oracle.batch_ns_per_query"] = metric{perQuery(d), "ns"}
	as := o.AnswerBatch(qs)
	if d, err = rung("wire.codec", 200, func() ([]oracle.Answer, error) {
		dq, err := wire.DecodeQueries(wire.AppendQueries(nil, qs))
		if err != nil || len(dq) != len(qs) {
			return nil, fmt.Errorf("decode queries: %v", err)
		}
		return wire.DecodeAnswers(wire.AppendAnswers(nil, as))
	}); err != nil {
		return err
	}
	m["wire.codec_ns_per_query"] = metric{perQuery(d), "ns"}

	// The server over net.Pipe: no kernel socket, so the gap to the
	// oracle rung is the session and codec, and the gap to the TCP rung
	// is loopback TCP.
	srv := server.New(o, server.Config{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	textConn, textDone := pipeSession(ctx, srv)
	br := bufio.NewReader(textConn)
	d, err = rung("server.pipe_text", 20, singles(func(u, v int32) (oracle.Answer, error) {
		if _, err := fmt.Fprintf(textConn, "dist %d %d\n", u, v); err != nil {
			return oracle.Answer{}, err
		}
		line, err := br.ReadString('\n')
		if err != nil {
			return oracle.Answer{}, err
		}
		return parseTextDist(line, u, v)
	}))
	textConn.Close()
	<-textDone
	if err != nil {
		return err
	}
	m["server.pipe_text_rtt_us"] = metric{perQuery(d) / 1e3, "us"}
	binConn, binDone := pipeSession(ctx, srv)
	bc, err := wire.NewClient(binConn, wire.ClientOptions{})
	if err != nil {
		binConn.Close()
		<-binDone
		return err
	}
	d, err = rung("server.pipe_binary", 20, singles(bc.Dist))
	bc.Close()
	<-binDone
	if err != nil {
		return err
	}
	m["server.pipe_binary_rtt_us"] = metric{perQuery(d) / 1e3, "us"}

	addr, stop, err := serveTCP(server.New(o, server.Config{}))
	if err != nil {
		return err
	}
	tc, err := wire.Dial(addr, wire.ClientOptions{})
	if err != nil {
		stop()
		return err
	}
	d, err = rung("server.tcp", 20, singles(tc.Dist))
	if err == nil {
		m["server.tcp_rtt_us"] = metric{perQuery(d) / 1e3, "us"}
		d, err = rung("server.tcp_batch", 100, func() ([]oracle.Answer, error) { return tc.Batch(qs) })
		m["server.tcp_batch_us"] = metric{d / 1e3, "us"}
	}
	tc.Close()
	stop()
	if err != nil {
		return err
	}

	fleet, err := router.StartLocalFleet(2, func(int) (*oracle.Oracle, error) { return newOracle(0) }, server.Config{})
	if err != nil {
		return err
	}
	defer fleet.Close()
	rt, err := router.New(router.Options{Workers: fleet.Addrs()})
	if err != nil {
		return err
	}
	defer rt.Close()
	if d, err = rung("router.batch", 100, func() ([]oracle.Answer, error) { return rt.AnswerBatch(qs) }); err != nil {
		return err
	}
	m["router.batch_us"] = metric{d / 1e3, "us"}
	faddr, fstop, err := serveTCP(server.NewBackend(rt, server.Config{}))
	if err != nil {
		return err
	}
	defer fstop()
	fc, err := wire.Dial(faddr, wire.ClientOptions{})
	if err != nil {
		return err
	}
	defer fc.Close()
	if d, err = rung("router.front_batch", 100, func() ([]oracle.Answer, error) { return fc.Batch(qs) }); err != nil {
		return err
	}
	m["router.front_batch_us"] = metric{d / 1e3, "us"}
	m["ladder.serve_rungs"] = metric{float64(rungs), "count"}
	t.add(rungs == 10, "serve ladder: %d of 10 rungs matched the fingerprint", rungs)
	return nil
}

// pipeSession runs one server session over an in-memory pipe and returns
// the client end and a channel closed when the session has ended, which
// it does once the client end is closed.
func pipeSession(ctx context.Context, srv *server.Server) (net.Conn, <-chan struct{}) {
	client, serverEnd := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer serverEnd.Close()
		srv.ServeStream(ctx, serverEnd, serverEnd)
	}()
	return client, done
}

// parseTextDist parses a text-protocol dist response:
// "dist <u> <v> = <d> exact=<t|f> bound=<b> us=<x>" or "... = unreachable".
func parseTextDist(line string, u, v int32) (oracle.Answer, error) {
	a := oracle.Answer{U: u, V: v, Dist: graph.Unreachable, Bound: graph.Unreachable}
	f := strings.Fields(line)
	if len(f) < 5 || f[0] != "dist" || f[1] != strconv.Itoa(int(u)) || f[2] != strconv.Itoa(int(v)) || f[3] != "=" {
		return a, fmt.Errorf("unexpected response %q", line)
	}
	if f[4] == "unreachable" {
		return a, nil
	}
	d, err := strconv.Atoi(f[4])
	if err != nil {
		return a, fmt.Errorf("unexpected response %q", line)
	}
	a.Dist = int32(d)
	for _, kv := range f[5:] {
		switch {
		case kv == "exact=t":
			a.Exact = true
		case strings.HasPrefix(kv, "bound="):
			b, err := strconv.Atoi(kv[len("bound="):])
			if err != nil {
				return a, fmt.Errorf("unexpected response %q", line)
			}
			a.Bound = int32(b)
		}
	}
	return a, nil
}

// updateLadder replays ups from the same starting graph and seed on a
// bare spanner.Incremental (repair, then materialization) and on a live
// oracle.Dynamic (repair + materialization + backend refresh). After
// every 16th update and at the end the two spanners' edge-set hashes must
// agree; with served, the serving engine's final state is a third rung
// that must agree too. ladder.update_rungs counts the rungs that agree
// with the bare spanner at the end, itself included.
func updateLadder(m map[string]metric, rec *recorder, t *tally, g *graph.Graph, ups []update, opts oracle.DynamicOptions, served *oracle.SnapshotInfo) error {
	sh := rec.shard()
	shadow := spanner.NewIncremental(g, opts.Spanner)
	dyn, err := oracle.NewDynamic(g, opts)
	if err != nil {
		return err
	}
	var repair, materialize, upd []float64
	matched, rungs := 0, 1
	for i, up := range ups {
		req := uint64(i)
		s := sh.begin("spanner.repair", -1, req)
		t0 := time.Now()
		var applied bool
		if up.add {
			applied, _, err = shadow.Insert(up.u, up.v)
		} else {
			applied, _, err = shadow.Delete(up.u, up.v)
		}
		t1 := time.Now()
		sh.end(s)
		if err != nil {
			return err
		}
		s = sh.begin("spanner.materialize", -1, req)
		shadow.Spanner()
		t2 := time.Now()
		sh.end(s)
		s = sh.begin("oracle.update", -1, req)
		res, err := dyn.Update(up.u, up.v, up.add)
		t3 := time.Now()
		sh.end(s)
		if err != nil {
			return err
		}
		t.add(applied && res.Applied, "update ladder: update %d %+v applied shadow=%v engine=%v", i, up, applied, res.Applied)
		repair = append(repair, us(t1.Sub(t0)))
		materialize = append(materialize, us(t2.Sub(t1)))
		upd = append(upd, us(t3.Sub(t2)))
		if (i+1)%16 == 0 || i == len(ups)-1 {
			a, b := edgeHash(shadow.Edges()), dyn.Snapshot(false).SpannerHash
			t.add(a == b, "update ladder: after update %d the shadow spanner hash %x differs from the engine's %x", i, a, b)
			if a == b {
				matched++
			}
			if i == len(ups)-1 && a == b {
				rungs++
			}
		}
	}
	s := sh.begin("oracle.snapshot_verify", -1, 0)
	t0 := time.Now()
	info := dyn.Snapshot(true)
	verify := time.Since(t0)
	sh.end(s)
	t.add(info.Consistent, "update ladder: engine snapshot does not verify")
	if served != nil {
		ok := served.SpannerHash == info.SpannerHash && served.GraphHash == info.GraphHash
		t.add(ok, "update ladder: replayed state %x/%x differs from the served engine's %x/%x",
			info.GraphHash, info.SpannerHash, served.GraphHash, served.SpannerHash)
		if ok {
			rungs++
		}
	}
	m["spanner.repair_us"] = metric{mean(repair), "us"}
	m["spanner.materialize_us"] = metric{mean(materialize), "us"}
	m["oracle.update_us"] = metric{mean(upd), "us"}
	m["oracle.refresh_us"] = metric{mean(upd) - mean(repair) - mean(materialize), "us"}
	m["spanner.rebuilds"] = metric{float64(shadow.Rebuilds()), "count"}
	m["oracle.snapshot_verify_ms"] = metric{ms(verify), "ms"}
	m["ladder.update_checkpoints"] = metric{float64(matched), "count"}
	m["ladder.update_rungs"] = metric{float64(rungs), "count"}
	return nil
}

// pipelineLadder runs the reproduce pipeline once, on the inputs the
// reproduce workload derives from seed, for a serving workload's traced
// run: the construction and routing layers have no serving path.
func pipelineLadder(m map[string]metric, rec *recorder, t *tally, seed uint64) error {
	in, err := genPipelineInput(reproduceDefault, seed)
	if err != nil {
		return err
	}
	pt, err := runPipeline(in, rec.shard(), 0, t)
	if err != nil {
		return err
	}
	pipelineMetrics(m, []pipelineTimes{pt})
	return nil
}

// finishTrace adds the recorder's own figures and writes the spans out.
func finishTrace(m map[string]metric, rec *recorder, cfg runConfig, name string) error {
	m["trace.spans"] = metric{float64(rec.count()), "count"}
	return rec.dump(cfg.out, name, cfg.seed)
}
