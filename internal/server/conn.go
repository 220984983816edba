package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"time"

	"repro/internal/wire"
)

// deadliner is the part of net.Conn the session needs for idle/write
// deadlines; a nil deadliner (stdin mode) disables them.
type deadliner interface {
	SetReadDeadline(t time.Time) error
	SetWriteDeadline(t time.Time) error
}

// session is one connection's protocol state.
type session struct {
	srv *Server
	rd  *lineReader
	w   *bufio.Writer
	dl  deadliner
}

// runSession classifies the connection's protocol from its first byte —
// wire.MagicByte opens a binary frame session, anything else a text line
// session — and runs the matching loop until EOF, "quit", a dead
// connection, an idle timeout, or a server drain.
func (s *Server) runSession(in io.Reader, out io.Writer, dl deadliner) {
	br := bufio.NewReaderSize(in, 4096)
	if s.draining.Load() {
		return
	}
	// The sniff runs under the idle deadline like any other read: a
	// connection that sends nothing is a slow loris whichever protocol it
	// was going to speak. One byte suffices because the binary magic byte
	// is non-ASCII — peeking more could hang an interactive text client
	// that typed a short line.
	if dl != nil && s.cfg.IdleTimeout > 0 {
		dl.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
	}
	first, err := br.Peek(1)
	if err != nil {
		if isTimeout(err) && !s.draining.Load() {
			s.counters.Add("timeouts", 1)
			s.counters.Add("errs", 1)
			if dl != nil && s.cfg.WriteTimeout > 0 {
				dl.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
			}
			io.WriteString(out, "err idle timeout, closing connection\n")
		}
		return
	}
	if first[0] == wire.MagicByte {
		s.counters.Add("binconns", 1)
		s.runBinarySession(br, out, dl)
		return
	}
	s.runTextSession(br, out, dl)
}

// runTextSession speaks the line protocol over an already-sniffed reader.
// Every exit flushes any pending response first, so an in-flight request
// is answered before the connection closes.
func (s *Server) runTextSession(in io.Reader, out io.Writer, dl deadliner) {
	sess := &session{srv: s, rd: newLineReader(in, s.cfg.MaxLineBytes), w: bufio.NewWriter(out), dl: dl}
	defer sess.flush()
	for {
		if s.draining.Load() {
			return
		}
		sess.armReadDeadline()
		line, tooLong, err := sess.rd.readLine()
		if tooLong {
			s.counters.Add("toolong", 1)
			if sess.respondErrf("line too long (max %d bytes)", s.cfg.MaxLineBytes) != nil || err != nil {
				return
			}
			continue
		}
		if err != nil {
			// EOF and mid-line disconnects close silently (there is no one
			// left to answer); an idle timeout tells the slow client why it
			// is being dropped — unless the deadline fired because the
			// server is draining.
			if isTimeout(err) && !s.draining.Load() {
				s.counters.Add("timeouts", 1)
				sess.respondErrf("idle timeout, closing connection")
			}
			return
		}
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if line == "quit" {
			return
		}
		s.counters.Add("requests", 1)
		if sess.handleContained(line) != nil {
			return
		}
	}
}

// handleContained is handle with a panic contained to its request: the
// client is answered "err internal" and the session keeps serving.
func (sess *session) handleContained(line string) (err error) {
	defer func() {
		if sess.srv.recovered(recover()) {
			err = sess.respondErrf("%s", errInternal)
		}
	}()
	return sess.handle(line)
}

// armReadDeadline starts the idle clock for the next read.
func (sess *session) armReadDeadline() {
	if sess.dl != nil && sess.srv.cfg.IdleTimeout > 0 {
		sess.dl.SetReadDeadline(time.Now().Add(sess.srv.cfg.IdleTimeout))
	}
}

// writeLine queues one response line; write errors surface on flush.
func (sess *session) writeLine(line string) {
	sess.w.WriteString(line)
	sess.w.WriteByte('\n')
}

// flush pushes queued response lines under the write deadline.
func (sess *session) flush() error {
	if sess.dl != nil && sess.srv.cfg.WriteTimeout > 0 {
		sess.dl.SetWriteDeadline(time.Now().Add(sess.srv.cfg.WriteTimeout))
	}
	return sess.w.Flush()
}

// respond writes and flushes a single response line; a non-nil error means
// the connection is unusable.
func (sess *session) respond(line string) error {
	sess.writeLine(line)
	return sess.flush()
}

// respondErrf answers "err <message>" and counts it.
func (sess *session) respondErrf(format string, args ...any) error {
	sess.srv.counters.Add("errs", 1)
	if len(args) == 0 {
		return sess.respond("err " + format)
	}
	return sess.respond("err " + fmt.Sprintf(format, args...))
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
