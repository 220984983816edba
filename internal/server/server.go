// Package server is the hardened serving layer between cmd/dcserve (and
// cmd/dcrouter) and a query backend: it owns the connection lifecycle
// (accept loop, connection-count semaphore, per-connection idle and write
// deadlines, context-based graceful shutdown that drains in-flight
// requests) and both protocol flavors — the line protocol below and the
// binary frame protocol of internal/wire — with bounded request sizes and
// per-server request/error counters surfaced through the extended stats
// response. The protocol is sniffed from the first byte of each
// connection: wire.MagicByte opens a binary session, anything else is a
// text session.
//
// Protocol (one request per line; responses are one line each unless
// noted):
//
//	dist <u> <v>   ->  dist <u> <v> = <d> exact=<t|f> bound=<b> us=<latency>
//	                   (disconnected pairs answer "dist <u> <v> = unreachable")
//	route <u> <v>  ->  route <u> <v> = <d> path=<v0>-<v1>-...-<vk>
//	batch <n>      ->  reads n following "dist <u> <v>" lines and answers
//	                   them through the oracle's worker pool: n response
//	                   lines, index-aligned with the input, each in the
//	                   dist format without the us= field
//	trace <u> <v>  ->  answers the query with tracing forced on and
//	                   returns the hop breakdown inline:
//	                   trace <u> <v> = <d> id=<hex> path=<...> total=<µs>
//	                   hops=[...]; the trace also lands in the flight
//	                   recorder when one is configured
//	stats          ->  stats <oracle report> | server <counter report>
//	update <u> <v> <add|del>
//	               ->  applies one edge mutation to a live (dynamic)
//	                   graph: update <u> <v> <op> = applied=<t|f>
//	                   rebuilt=<t|f> m=<m> hm=<hm> seq=<seq>; backends
//	                   without a dynamic engine answer
//	                   "err updates not supported"
//	snapshot [verify]
//	               ->  snapshot n=<n> m=<m> hm=<hm> seq=<seq>
//	                   ghash=<hex> hhash=<hex> verified=<t|f>
//	                   consistent=<t|f>; with verify the server rebuilds
//	                   the spanner from scratch and compares it to the
//	                   incrementally maintained one
//	quit           ->  closes the connection
//
// Malformed requests answer "err <message>" and keep the connection open;
// a request line over Config.MaxLineBytes answers "err line too long".
// Connections beyond Config.MaxConns are rejected with "err server busy".
// A request whose backend call panics answers "err internal" (MsgErr
// "internal" on a binary connection), counts in the panics counter, and
// leaves the connection and the process serving.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/stats"
	"repro/internal/wire"
)

// Defaults for the zero Config.
const (
	DefaultMaxConns     = 1024
	DefaultMaxLineBytes = 256 << 10
	DefaultMaxBatch     = 1 << 14
	DefaultIdleTimeout  = 2 * time.Minute
	DefaultWriteTimeout = 30 * time.Second
	DefaultDrainTimeout = 5 * time.Second
)

// Config tunes the serving limits. The zero value means the defaults
// above; negative durations disable the corresponding deadline.
type Config struct {
	// MaxConns bounds concurrent connections; excess connections are
	// answered "err server busy" and closed.
	MaxConns int
	// MaxLineBytes bounds one request line; longer lines answer
	// "err line too long (max N bytes)" and the connection stays usable.
	MaxLineBytes int
	// MaxBatch bounds the n of a "batch <n>" command.
	MaxBatch int
	// IdleTimeout is the per-read deadline: a connection that sends no
	// complete line for this long is answered "err idle timeout" and
	// closed (the slow-loris guard). Ignored on deadline-less streams.
	IdleTimeout time.Duration
	// WriteTimeout is the per-response write deadline.
	WriteTimeout time.Duration
	// DrainTimeout bounds graceful shutdown: connections still open this
	// long after the context is cancelled are force-closed.
	DrainTimeout time.Duration
	// MaxFrameBytes bounds one binary (wire v2) frame body. The zero value
	// picks the larger of wire.DefaultMaxFrameBytes and whatever a
	// MaxBatch-sized batch frame needs, so the two limits can never
	// disagree.
	MaxFrameBytes int
	// Log, when set, receives serve-loop and session diagnostics (accept
	// errors, drain progress) as structured records under
	// component=server. Nil discards.
	Log *slog.Logger
	// Registry, when set, exposes the serving counters as
	// server_<name>_total metric families plus a server_active_conns
	// gauge and the per-stage request histograms — dcserve points this at
	// the process registry so the wire "stats" line and the /metrics
	// endpoint render the same numbers.
	Registry *obs.Registry
	// Flight, when set, retains completed request traces (sampled binary
	// requests and every `trace` verb) for /debug/requests.
	Flight *obs.FlightRecorder
	// TraceSample, when > 0, server-side samples every Nth binary
	// dist/batch request that did not itself carry the wire sampling bit.
	// 0 traces only client-requested requests.
	TraceSample int
}

func (c Config) withDefaults() Config {
	if c.MaxConns <= 0 {
		c.MaxConns = DefaultMaxConns
	}
	if c.MaxLineBytes <= 0 {
		c.MaxLineBytes = DefaultMaxLineBytes
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = DefaultMaxBatch
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = DefaultIdleTimeout
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = DefaultWriteTimeout
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = DefaultDrainTimeout
	}
	if c.MaxFrameBytes <= 0 {
		c.MaxFrameBytes = wire.DefaultMaxFrameBytes
		if need := wire.BatchFrameBytes(c.MaxBatch) + 64; need > c.MaxFrameBytes {
			c.MaxFrameBytes = need
		}
	}
	return c
}

// Server serves both protocol flavors for one backend. A Server is
// single-use: once its context is cancelled (draining), it does not serve
// again.
type Server struct {
	b        Backend
	tb       TracedBackend // b, when it supports traced calls; else nil
	ss       SnapshotStatser
	up       Updatable // b, when it serves graph mutations; else nil
	cfg      Config
	log      *slog.Logger
	counters *stats.Counters
	sem      chan struct{}
	draining atomic.Bool
	traceSeq atomic.Uint64
	stages   stageSet

	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

// stageSet holds the per-stage latency histograms (with trace-id
// exemplars) sampled requests feed: time spent queued behind the
// pipelining limit, in the backend, and writing the response. All nil
// when no Registry is configured; observe is nil-safe.
type stageSet struct {
	queue, backend, write       *stats.Histogram
	queueEx, backendEx, writeEx *obs.Exemplar
}

func newStageSet(reg *obs.Registry, prefix string) stageSet {
	var ss stageSet
	if reg == nil {
		return ss
	}
	// Same latency bucket ladder as stats.NewLatencyHistogram: 100ns up
	// through seconds.
	bounds := stats.ExpBuckets(100e-9, 1.34, 60)
	mk := func(stage, help string) (*stats.Histogram, *obs.Exemplar) {
		return reg.HistogramExemplar(prefix+"_stage_"+stage+"_seconds", help, bounds)
	}
	ss.queue, ss.queueEx = mk("queue", "Sampled-request time between frame receipt and handler start.")
	ss.backend, ss.backendEx = mk("backend", "Sampled-request time inside the backend (oracle or fleet fan-out).")
	ss.write, ss.writeEx = mk("write", "Sampled-request time encoding and flushing the response frame.")
	return ss
}

// observe records one stage duration with its trace-id exemplar; only
// sampled requests call it, so the unsampled hot path never touches the
// histograms.
func (ss stageSet) observe(h *stats.Histogram, ex *obs.Exemplar, traceID uint64, start time.Time) {
	if h == nil {
		return
	}
	sec := time.Since(start).Seconds()
	h.Observe(sec)
	ex.Observe(traceID, sec)
}

// New builds a Server over a single in-process oracle — the common case,
// kept as the front door so call sites predating Backend read unchanged.
func New(o *oracle.Oracle, cfg Config) *Server {
	return NewBackend(OracleBackend{o}, cfg)
}

// NewBackend builds a Server over any Backend. cfg's zero fields take the
// package defaults.
func NewBackend(b Backend, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		b:   b,
		cfg: cfg,
		log: obs.Component(cfg.Log, "server"),
		counters: stats.NewCounters(
			"conns", "busy", "requests", "batches", "errs", "toolong", "timeouts", "binconns", "panics"),
		sem:   make(chan struct{}, cfg.MaxConns),
		conns: make(map[net.Conn]struct{}),
	}
	// Traced/snapshot capabilities are optional per backend; cache the
	// assertions once so the hot path does a nil check, not a type switch.
	s.tb, _ = b.(TracedBackend)
	s.ss, _ = b.(SnapshotStatser)
	s.up, _ = b.(Updatable)
	if cfg.Registry != nil {
		cfg.Registry.AttachCounters("server", s.counters)
		cfg.Registry.GaugeFunc("server_active_conns",
			"connections currently being served",
			func() float64 { return float64(s.Active()) })
		s.stages = newStageSet(cfg.Registry, "server")
	}
	return s
}

// shouldSample reports whether the server-side sampler elects the next
// binary request for tracing (every TraceSample-th data request;
// client-requested sampling bypasses this entirely).
func (s *Server) shouldSample() bool {
	n := s.cfg.TraceSample
	if n <= 0 {
		return false
	}
	return s.traceSeq.Add(1)%uint64(n) == 0
}

// distTrace answers one query through the traced backend surface when
// the backend offers it, falling back to the plain call (the trace then
// records server-side hops only).
func (s *Server) distTrace(u, v int32, tr *obs.ReqTrace) (oracle.Answer, error) {
	if s.tb != nil {
		return s.tb.DistTrace(u, v, tr)
	}
	return s.b.Dist(u, v)
}

// batchTrace is distTrace's batch analogue.
func (s *Server) batchTrace(qs []oracle.Query, tr *obs.ReqTrace) ([]oracle.Answer, error) {
	if s.tb != nil {
		return s.tb.AnswerBatchTrace(qs, tr)
	}
	return s.b.AnswerBatch(qs)
}

// Counter exposes a named serving counter (see NewBackend for the set) —
// conns, busy, requests, batches, errs, toolong, timeouts, binconns,
// panics.
func (s *Server) Counter(name string) int64 { return s.counters.Get(name) }

// errInternal is the error a request whose handler panicked answers with.
var errInternal = errors.New("internal")

// recovered contains one request's panic: given recover()'s value v, it
// counts and logs a non-nil v with its stack and reports whether there
// was a panic. Each request goroutine defers a call with recover() as the
// argument, so a panicking backend fails only its own request.
func (s *Server) recovered(v any) bool {
	if v == nil {
		return false
	}
	s.counters.Add("panics", 1)
	s.log.Error("request panicked", "panic", fmt.Sprint(v), "stack", string(debug.Stack()))
	return true
}

// Active returns the number of currently tracked connections.
func (s *Server) Active() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// Serve accepts connections on l until ctx is cancelled, then drains
// gracefully: the listener closes, blocked reads are woken, every session
// finishes its in-flight request and flushes its response, and connections
// still open after DrainTimeout are force-closed. Serve returns nil after
// a drain; a non-transient accept error (still preceded by a drain of the
// already-accepted connections) is returned as-is.
func (s *Server) Serve(ctx context.Context, l net.Listener) error {
	var wg sync.WaitGroup
	stop := context.AfterFunc(ctx, func() {
		s.draining.Store(true)
		s.log.Info("drain started", "active", s.Active())
		l.Close()
		s.wakeAll()
	})
	defer stop()

	var acceptErr error
	for {
		conn, err := l.Accept()
		if err != nil {
			if s.draining.Load() || ctx.Err() != nil {
				break
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				s.log.Warn("transient accept error", "err", err)
				continue
			}
			acceptErr = err
			s.log.Error("accept failed, draining", "err", err)
			s.draining.Store(true)
			s.wakeAll()
			break
		}
		select {
		case s.sem <- struct{}{}:
		default:
			s.counters.Add("busy", 1)
			s.rejectBusy(conn)
			continue
		}
		s.counters.Add("conns", 1)
		s.track(conn)
		wg.Add(1)
		go func() {
			defer func() {
				s.untrack(conn)
				conn.Close()
				<-s.sem
				wg.Done()
			}()
			s.runSession(conn, conn, conn)
		}()
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(s.cfg.DrainTimeout):
		s.log.Warn("drain timeout, force-closing connections", "conns", s.Active())
		s.closeAll()
		<-done
	}
	s.log.Info("drained")
	return acceptErr
}

// ServeStream runs the protocol over an arbitrary reader/writer pair —
// dcserve's stdin mode. No deadlines apply (an interactive stdin session
// must not idle-timeout); ctx cancellation stops the session at the next
// request boundary.
func (s *Server) ServeStream(ctx context.Context, in io.Reader, out io.Writer) {
	if ctx.Err() != nil {
		s.draining.Store(true)
		return
	}
	stop := context.AfterFunc(ctx, func() { s.draining.Store(true) })
	defer stop()
	s.counters.Add("conns", 1)
	s.runSession(in, out, nil)
}

// rejectBusy answers the over-capacity connection with a protocol-level
// error instead of a silent close.
func (s *Server) rejectBusy(conn net.Conn) {
	if s.cfg.WriteTimeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	}
	io.WriteString(conn, "err server busy\n")
	conn.Close()
}

func (s *Server) track(conn net.Conn) {
	s.mu.Lock()
	s.conns[conn] = struct{}{}
	s.mu.Unlock()
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// wakeAll expires every tracked connection's read deadline so sessions
// blocked in a read observe the drain immediately.
func (s *Server) wakeAll() {
	now := time.Now()
	s.mu.Lock()
	for conn := range s.conns {
		conn.SetReadDeadline(now)
	}
	s.mu.Unlock()
}

// closeAll force-closes the connections that outlived the drain budget.
func (s *Server) closeAll() {
	s.mu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
}

// statsLine renders the extended stats response: the backend's serving
// report plus the server's connection/request/error counters. When the
// backend exports its report from a registry snapshot and the server's
// counters feed the same registry, both halves (and the /metrics
// endpoint, which renders from the identical snapshot shape) derive from
// ONE capture instant — a stats line can never show an oracle that
// answered a query the server half hasn't counted yet. Without a shared
// registry it falls back to two per-source snapshots.
func (s *Server) statsLine() string {
	var b strings.Builder
	if s.ss != nil && s.cfg.Registry != nil {
		snap := s.cfg.Registry.Snapshot()
		b.WriteString(s.ss.StatsLineFrom(snap))
		b.WriteString(" | server")
		for _, cv := range s.counters.Snapshot() {
			fmt.Fprintf(&b, " %s=%d", cv.Name, snap.Counters["server_"+cv.Name])
		}
		fmt.Fprintf(&b, " active=%d", int(snap.Gauges["server_active_conns"]))
		return b.String()
	}
	b.WriteString(s.b.StatsLine())
	b.WriteString(" | server")
	for _, cv := range s.counters.Snapshot() {
		fmt.Fprintf(&b, " %s=%d", cv.Name, cv.Value)
	}
	fmt.Fprintf(&b, " active=%d", s.Active())
	return b.String()
}
