package server

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/oracle"
)

// handle dispatches one request line, writing one response line — or, for
// batch, one per batched query. A non-nil return means the connection is
// unusable and the session must end; protocol-level problems answer
// "err <message>" and return nil.
func (sess *session) handle(line string) error {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return sess.respondErrf("empty command")
	}
	o := sess.srv.b
	switch fields[0] {
	case "stats":
		return sess.respond("stats " + sess.srv.statsLine())
	case "dist":
		u, v, err := parsePair(fields)
		if err != nil {
			return sess.respondErrf("%s", err)
		}
		t0 := time.Now()
		ans, err := o.Dist(u, v)
		if err != nil {
			return sess.respondErrf("%s", err)
		}
		return sess.respond(formatDist(ans, time.Since(t0)))
	case "route":
		u, v, err := parsePair(fields)
		if err != nil {
			return sess.respondErrf("%s", err)
		}
		p, ans, err := o.Route(u, v)
		if err != nil {
			return sess.respondErrf("%s", err)
		}
		if p == nil {
			return sess.respond(fmt.Sprintf("route %d %d = unreachable", u, v))
		}
		parts := make([]string, len(p))
		for i, x := range p {
			parts[i] = strconv.Itoa(int(x))
		}
		return sess.respond(fmt.Sprintf("route %d %d = %d path=%s", u, v, ans.Dist, strings.Join(parts, "-")))
	case "trace":
		return sess.handleTrace(fields)
	case "batch":
		return sess.handleBatch(fields)
	case "update":
		return sess.handleUpdate(fields)
	case "snapshot":
		return sess.handleSnapshot(fields)
	default:
		return sess.respondErrf("unknown command %q (want dist|route|batch|trace|stats|update|snapshot|quit)", fields[0])
	}
}

// handleUpdate answers "update <u> <v> <add|del>": one edge mutation of
// a live graph, applied end to end (graph, spanner, backend state)
// before the response goes out — a client that sees the response line
// queries the updated state.
func (sess *session) handleUpdate(fields []string) error {
	srv := sess.srv
	if srv.up == nil {
		return sess.respondErrf("updates not supported (static graph; start the server with a dynamic engine)")
	}
	if len(fields) != 4 || (fields[3] != "add" && fields[3] != "del") {
		return sess.respondErrf(`want "update <u> <v> <add|del>"`)
	}
	u, v, err := parsePair(fields[:3])
	if err != nil {
		return sess.respondErrf("%s", err)
	}
	res, err := srv.up.Update(u, v, fields[3] == "add")
	if err != nil {
		return sess.respondErrf("%s", err)
	}
	return sess.respond(fmt.Sprintf("update %d %d %s = applied=%t m=%d hm=%d seq=%d",
		u, v, fields[3], res.Applied, res.M, res.HM, res.Seq))
}

// handleSnapshot answers "snapshot [verify]" with the dynamic engine's
// state digest; verify asks the server to rebuild the spanner from
// scratch and report whether the maintained one matches.
func (sess *session) handleSnapshot(fields []string) error {
	srv := sess.srv
	if srv.up == nil {
		return sess.respondErrf("updates not supported (static graph; start the server with a dynamic engine)")
	}
	verify := false
	switch {
	case len(fields) == 1:
	case len(fields) == 2 && fields[1] == "verify":
		verify = true
	default:
		return sess.respondErrf(`want "snapshot [verify]"`)
	}
	info := srv.up.Snapshot(verify)
	return sess.respond(fmt.Sprintf(
		"snapshot n=%d m=%d hm=%d seq=%d ghash=%016x hhash=%016x verified=%t consistent=%t",
		info.N, info.M, info.HM, info.Seq, info.GraphHash, info.SpannerHash, info.Verified, info.Consistent))
}

// handleTrace answers "trace <u> <v>": a dist query with tracing forced
// on, returning the answer plus the hop breakdown inline. The trace also
// lands in the flight recorder (when configured), so the verb doubles as
// a way to seed /debug/requests on demand.
func (sess *session) handleTrace(fields []string) error {
	u, v, err := parsePair(fields)
	if err != nil {
		return sess.respondErrf("%s", err)
	}
	srv := sess.srv
	tr := obs.NewReqTrace(0)
	tr.SetVerb("trace", fmt.Sprintf("u=%d v=%d", u, v))
	ans, err := srv.distTrace(u, v, tr)
	if err != nil {
		tr.Finish(srv.cfg.Flight, err.Error())
		return sess.respondErrf("%s", err)
	}
	rec := tr.Finish(srv.cfg.Flight, "")
	dist := strconv.Itoa(int(ans.Dist))
	if ans.Dist == graph.Unreachable {
		dist = "unreachable"
	}
	return sess.respond(fmt.Sprintf("trace %d %d = %s %s", u, v, dist, rec.Line()))
}

// handleBatch reads n subsequent "dist <u> <v>" lines and answers them
// through the oracle's worker pool: n response lines, index-aligned with
// the input, each in the dist format without the us= field. A malformed
// batch line consumes its slot and answers "err ..." at its index without
// poisoning the rest of the batch; a dead connection mid-batch aborts
// (index alignment is unrecoverable).
func (sess *session) handleBatch(fields []string) error {
	srv := sess.srv
	if len(fields) != 2 {
		return sess.respondErrf(`want "batch <n>"`)
	}
	n, err := strconv.Atoi(fields[1])
	if err != nil || n < 1 || n > srv.cfg.MaxBatch {
		return sess.respondErrf("batch size must be in [1, %d]", srv.cfg.MaxBatch)
	}
	// Grow towards n instead of committing the full allocation up front:
	// the client has only promised n lines at this point, and a "batch
	// <max>" followed by a disconnect should cost the server nothing.
	cap0 := n
	if cap0 > 256 {
		cap0 = 256
	}
	resp := make([]string, 0, cap0) // pre-rendered errors; "" = answered by the oracle
	qs := make([]oracle.Query, 0, cap0)
	qIdx := make([]int, 0, cap0)
	limit := int32(srv.b.N())
	for i := 0; i < n; i++ {
		resp = append(resp, "")
		sess.armReadDeadline()
		line, tooLong, rerr := sess.rd.readLine()
		if tooLong {
			srv.counters.Add("toolong", 1)
			srv.counters.Add("errs", 1)
			resp[i] = fmt.Sprintf("err line too long (max %d bytes)", srv.cfg.MaxLineBytes)
			if rerr != nil {
				return rerr
			}
			continue
		}
		if rerr != nil {
			if isTimeout(rerr) && !srv.draining.Load() {
				srv.counters.Add("timeouts", 1)
				sess.respondErrf("idle timeout inside batch, closing connection")
			}
			return rerr
		}
		bf := strings.Fields(strings.TrimSpace(line))
		switch {
		case len(bf) == 0:
			resp[i] = `err empty batch line (want "dist <u> <v>")`
		case bf[0] != "dist":
			resp[i] = fmt.Sprintf("err batch lines must be dist queries, got %q", bf[0])
		default:
			u, v, perr := parsePair(bf)
			switch {
			case perr != nil:
				resp[i] = "err " + perr.Error()
			case u < 0 || v < 0 || u >= limit || v >= limit:
				// Mirror the oracle's own out-of-range error text so batch
				// answers match sequential dist answers index for index.
				resp[i] = fmt.Sprintf("err oracle: query (%d,%d) out of range [0,%d)", u, v, limit)
			default:
				qs = append(qs, oracle.Query{U: u, V: v})
				qIdx = append(qIdx, i)
			}
		}
		if resp[i] != "" {
			srv.counters.Add("errs", 1)
		}
	}
	answers, berr := func() (as []oracle.Answer, err error) {
		defer func() {
			if srv.recovered(recover()) {
				err = errInternal
			}
		}()
		return srv.b.AnswerBatch(qs)
	}()
	if berr != nil {
		// A failed (a fleet with no live workers) or panicking backend
		// still owes the client its n index-aligned lines.
		srv.counters.Add("errs", int64(len(qs)))
		for _, i := range qIdx {
			resp[i] = "err " + berr.Error()
		}
	} else {
		for j, a := range answers {
			resp[qIdx[j]] = formatDist(a, -1)
		}
	}
	srv.counters.Add("batches", 1)
	srv.counters.Add("requests", int64(n)) // each batched line is a request
	for _, r := range resp {
		sess.writeLine(r)
	}
	return sess.flush()
}

// formatDist renders a dist response. Disconnected pairs answer the
// protocol word "unreachable" — the raw graph.Unreachable sentinel (-1)
// must never leak to clients — and a landmark bound that reaches no
// common landmark renders as "none". A negative elapsed omits the us=
// latency field (batch answers are timed in aggregate by the oracle).
func formatDist(a oracle.Answer, elapsed time.Duration) string {
	if a.Dist == graph.Unreachable {
		return fmt.Sprintf("dist %d %d = unreachable", a.U, a.V)
	}
	bound := strconv.Itoa(int(a.Bound))
	if a.Bound == graph.Unreachable {
		bound = "none"
	}
	s := fmt.Sprintf("dist %d %d = %d exact=%t bound=%s", a.U, a.V, a.Dist, a.Exact, bound)
	if elapsed >= 0 {
		s += fmt.Sprintf(" us=%.1f", elapsed.Seconds()*1e6)
	}
	return s
}

// parsePair parses "<cmd> <u> <v>". Vertices must fit in an int32 — the
// old strconv.Atoi path silently truncated 64-bit values on conversion.
func parsePair(fields []string) (int32, int32, error) {
	if len(fields) != 3 {
		return 0, 0, fmt.Errorf("want %q", fields[0]+" <u> <v>")
	}
	u, err1 := strconv.ParseInt(fields[1], 10, 32)
	v, err2 := strconv.ParseInt(fields[2], 10, 32)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("bad vertex in %v", fields[1:])
	}
	return int32(u), int32(v), nil
}
