package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// maxBinaryInflight bounds concurrently executing requests per binary
// connection. Pipelining is the point of the frame protocol — a router
// keeps several batches in flight on one pooled connection — but one
// connection must not be able to occupy the whole process.
const maxBinaryInflight = 8

// binSession is one binary (wire.Version) connection's state. Requests
// run concurrently up to maxBinaryInflight and may complete out of order;
// responses are serialized by wmu.
type binSession struct {
	srv *Server
	br  *bufio.Reader
	dl  deadliner

	wmu sync.Mutex
	w   *bufio.Writer

	wg     sync.WaitGroup
	broken atomic.Bool // a write failed; the connection is done
}

// runBinarySession performs the server side of the version handshake —
// it accepts a hello whose [min, max] interval contains wire.Version and
// answers 0 and closes otherwise — and then serves frames until EOF,
// corruption, an idle timeout, or a drain. A drain wakes the blocked read
// via the expired read deadline, waits for in-flight requests, and lets
// their responses flush — same discipline as the text session.
func (s *Server) runBinarySession(br *bufio.Reader, out io.Writer, dl deadliner) {
	bs := &binSession{srv: s, br: br, dl: dl, w: bufio.NewWriterSize(out, 16<<10)}

	var hello [wire.HelloLen]byte
	if _, err := io.ReadFull(br, hello[:]); err != nil {
		return
	}
	cMin, cMax, err := wire.ParseHello(hello[:])
	if err != nil || cMin > wire.Version || cMax < wire.Version {
		s.counters.Add("errs", 1)
		bs.writeRaw(wire.AppendHelloReply(nil, 0))
		return
	}
	if !bs.writeRaw(wire.AppendHelloReply(nil, wire.Version)) {
		return
	}

	sem := make(chan struct{}, maxBinaryInflight)
	for {
		if s.draining.Load() || bs.broken.Load() {
			break
		}
		if dl != nil && s.cfg.IdleTimeout > 0 {
			dl.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		}
		f, err := wire.ReadFrame(br, s.cfg.MaxFrameBytes)
		if err != nil {
			switch {
			case isTimeout(err) && !s.draining.Load():
				s.counters.Add("timeouts", 1)
				bs.respondErr(0, "idle timeout, closing connection")
			case errors.Is(err, wire.ErrFrameTooBig) || errors.Is(err, wire.ErrShortFrame):
				// Corruption cannot be resynced; say why before closing. The
				// zero id marks a response no request will claim.
				bs.respondErr(0, err.Error())
			}
			break
		}
		s.counters.Add("requests", 1)
		// Trace decision happens at receipt so the queue hop covers the
		// time spent waiting behind the pipelining semaphore.
		tr := bs.maybeTrace(f)
		sem <- struct{}{}
		bs.wg.Add(1)
		go func(f wire.Frame, tr *obs.ReqTrace) {
			defer func() { <-sem; bs.wg.Done() }()
			defer func() {
				if s.recovered(recover()) {
					bs.finishErr(f, tr, errInternal.Error())
				}
			}()
			bs.handle(f, tr)
		}(f, tr)
	}
	bs.wg.Wait()
}

// maybeTrace decides whether this request is traced: data requests
// (dist/batch) are traced when the client set the wire sampling bit, or
// when the server-side 1-in-N sampler elects them. A client-carried trace
// id is continued; server-elected traces mint a fresh id.
func (bs *binSession) maybeTrace(f wire.Frame) *obs.ReqTrace {
	if f.Type != wire.MsgDist && f.Type != wire.MsgBatch {
		return nil
	}
	if f.Trace.Sampled() {
		return obs.NewReqTrace(f.Trace.ID)
	}
	if bs.srv.shouldSample() {
		return obs.NewReqTrace(0)
	}
	return nil
}

// handle answers one request frame. Runs on its own goroutine; everything
// it touches is either owned (the frame — ReadFrame allocates per frame)
// or internally synchronized. tr is nil for untraced requests; all
// tracing calls below are nil-safe, so the untraced path pays only the
// nil checks.
func (bs *binSession) handle(f wire.Frame, tr *obs.ReqTrace) {
	srv := bs.srv
	switch f.Type {
	case wire.MsgDist:
		q, err := wire.DecodeQuery(f.Payload)
		if err != nil {
			bs.finishErr(f, tr, err.Error())
			return
		}
		if tr != nil {
			tr.SetVerb("dist", fmt.Sprintf("u=%d v=%d", q.U, q.V))
			tr.Hop("queue", tr.Start(), "")
			srv.stages.observe(srv.stages.queue, srv.stages.queueEx, tr.ID(), tr.Start())
		}
		tb := time.Now()
		a, err := srv.distTrace(q.U, q.V, tr)
		if tr != nil {
			srv.stages.observe(srv.stages.backend, srv.stages.backendEx, tr.ID(), tb)
		}
		if err != nil {
			bs.finishErr(f, tr, err.Error())
			return
		}
		bs.respond(f, tr, wire.Frame{Type: wire.MsgDistR, ID: f.ID, Payload: wire.AppendAnswer(nil, a)})
	case wire.MsgBatch:
		qs, err := wire.DecodeQueries(f.Payload)
		if err != nil {
			bs.finishErr(f, tr, err.Error())
			return
		}
		if len(qs) > srv.cfg.MaxBatch {
			bs.finishErr(f, tr, fmt.Sprintf("batch size must be in [1, %d]", srv.cfg.MaxBatch))
			return
		}
		if tr != nil {
			tr.SetVerb("batch", fmt.Sprintf("n=%d", len(qs)))
			tr.Hop("queue", tr.Start(), "")
			srv.stages.observe(srv.stages.queue, srv.stages.queueEx, tr.ID(), tr.Start())
		}
		// Unlike the text path there is no per-line validation here: the
		// batch goes to the backend as decoded, and invalid queries come
		// back as Unreachable sentinels per oracle.AnswerBatch semantics.
		// That is what keeps a routed batch byte-identical to a local one.
		tb := time.Now()
		as, err := srv.batchTrace(qs, tr)
		if tr != nil {
			srv.stages.observe(srv.stages.backend, srv.stages.backendEx, tr.ID(), tb)
		}
		if err != nil {
			bs.finishErr(f, tr, err.Error())
			return
		}
		srv.counters.Add("batches", 1)
		srv.counters.Add("requests", int64(len(qs)))
		bs.respond(f, tr, wire.Frame{Type: wire.MsgBatchR, ID: f.ID,
			Payload: wire.AppendAnswers(make([]byte, 0, wire.BatchFrameBytes(len(as))), as)})
	case wire.MsgUpdate:
		if srv.up == nil {
			bs.respondErr(f.ID, "updates not supported (static graph; start the server with a dynamic engine)")
			return
		}
		u, v, add, err := wire.DecodeUpdateReq(f.Payload)
		if err != nil {
			bs.respondErr(f.ID, err.Error())
			return
		}
		res, err := srv.up.Update(u, v, add)
		if err != nil {
			bs.respondErr(f.ID, err.Error())
			return
		}
		bs.writeFrame(wire.Frame{Type: wire.MsgUpdateR, ID: f.ID, Payload: wire.AppendUpdateResult(nil, res)})
	case wire.MsgSnap:
		if srv.up == nil {
			bs.respondErr(f.ID, "updates not supported (static graph; start the server with a dynamic engine)")
			return
		}
		verify, err := wire.DecodeSnapReq(f.Payload)
		if err != nil {
			bs.respondErr(f.ID, err.Error())
			return
		}
		bs.writeFrame(wire.Frame{Type: wire.MsgSnapR, ID: f.ID,
			Payload: wire.AppendSnapshotInfo(nil, srv.up.Snapshot(verify))})
	case wire.MsgStats:
		bs.writeFrame(wire.Frame{Type: wire.MsgStatsR, ID: f.ID, Payload: []byte(srv.statsLine())})
	case wire.MsgInfo:
		bs.writeFrame(wire.Frame{Type: wire.MsgInfoR, ID: f.ID,
			Payload: wire.AppendInfo(nil, wire.Info{N: srv.b.N(), MaxBatch: srv.cfg.MaxBatch})})
	default:
		bs.respondErr(f.ID, fmt.Sprintf("unknown frame type 0x%02x", f.Type))
	}
}

// respond sends a successful data response, stamping the trace context
// (trace id, sampled bit, resolution-path mask) and completing the trace
// into the flight recorder.
func (bs *binSession) respond(req wire.Frame, tr *obs.ReqTrace, resp wire.Frame) {
	if tr == nil {
		// Untraced: echo the client's trace id (if any) with no sampled
		// bit, so a client that asked for sampling on a request the server
		// dropped tracing for can still correlate.
		resp.Trace = wire.ResponseContext(req.Trace.ID, false, 0)
		bs.writeFrame(resp)
		return
	}
	tw := time.Now()
	resp.Trace = wire.ResponseContext(tr.ID(), true, tr.Path())
	bs.writeFrame(resp)
	tr.Hop("write", tw, "")
	bs.srv.stages.observe(bs.srv.stages.write, bs.srv.stages.writeEx, tr.ID(), tw)
	tr.Finish(bs.srv.cfg.Flight, "")
}

// finishErr answers a request with MsgErr, counts it, and completes the
// trace (errored traces always land in the slow ring).
func (bs *binSession) finishErr(f wire.Frame, tr *obs.ReqTrace, msg string) {
	bs.srv.counters.Add("errs", 1)
	resp := wire.Frame{Type: wire.MsgErr, ID: f.ID, Payload: []byte(msg)}
	if tr != nil {
		resp.Trace = wire.ResponseContext(tr.ID(), true, tr.Path())
	}
	bs.writeFrame(resp)
	tr.Finish(bs.srv.cfg.Flight, msg)
}

// respondErr answers a request with MsgErr and counts it.
func (bs *binSession) respondErr(id uint64, msg string) {
	bs.srv.counters.Add("errs", 1)
	bs.writeFrame(wire.Frame{Type: wire.MsgErr, ID: id, Payload: []byte(msg)})
}

// writeFrame sends one response frame under the write deadline. A write
// error marks the session broken; later writes become no-ops and the read
// loop exits at its next iteration.
func (bs *binSession) writeFrame(f wire.Frame) {
	bs.wmu.Lock()
	defer bs.wmu.Unlock()
	if bs.broken.Load() {
		return
	}
	bs.armWriteDeadline()
	err := wire.WriteFrame(bs.w, f, bs.srv.cfg.MaxFrameBytes)
	if err == nil {
		err = bs.w.Flush()
	}
	if err != nil {
		bs.broken.Store(true)
	}
}

// writeRaw sends pre-encoded bytes (the hello reply) under the write
// deadline, reporting success.
func (bs *binSession) writeRaw(b []byte) bool {
	bs.wmu.Lock()
	defer bs.wmu.Unlock()
	bs.armWriteDeadline()
	_, err := bs.w.Write(b)
	if err == nil {
		err = bs.w.Flush()
	}
	if err != nil {
		bs.broken.Store(true)
		return false
	}
	return true
}

func (bs *binSession) armWriteDeadline() {
	if bs.dl != nil && bs.srv.cfg.WriteTimeout > 0 {
		bs.dl.SetWriteDeadline(time.Now().Add(bs.srv.cfg.WriteTimeout))
	}
}
