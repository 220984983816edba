package wire

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/oracle"
)

// ClientOptions tunes Dial/NewClient. The zero value is usable.
type ClientOptions struct {
	// DialTimeout bounds the TCP connect + handshake (default 5s).
	DialTimeout time.Duration
	// RequestTimeout bounds one round trip; a request that gets no
	// response within it fails the whole connection (the id map cannot
	// distinguish "slow" from "never") (default 30s).
	RequestTimeout time.Duration
	// MaxFrameBytes bounds sent and received frame bodies
	// (0 = DefaultMaxFrameBytes).
	MaxFrameBytes int
}

func (o ClientOptions) withDefaults() ClientOptions {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 30 * time.Second
	}
	if o.MaxFrameBytes <= 0 {
		o.MaxFrameBytes = DefaultMaxFrameBytes
	}
	return o
}

// Client is one pipelined connection, safe for concurrent use: any
// number of goroutines may have requests in flight; a background reader
// matches responses to callers by request id, so responses arriving out
// of order resolve the right calls. A Client is single-use — after any
// transport error it is dead (Healthy reports false, every call fails
// fast) and the owner should redial.
type Client struct {
	conn net.Conn
	opts ClientOptions

	wmu sync.Mutex // serializes frame writes
	bw  *bufio.Writer

	nextID atomic.Uint64

	mu      sync.Mutex
	pending map[uint64]chan Frame
	dead    error // sticky first transport error; nil while healthy
	closed  bool
}

// Dial connects, performs the version handshake, and starts the reader.
func Dial(addr string, opts ClientOptions) (*Client, error) {
	opts = opts.withDefaults()
	conn, err := net.DialTimeout("tcp", addr, opts.DialTimeout)
	if err != nil {
		return nil, err
	}
	c, err := NewClient(conn, opts)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// NewClient performs the client side of the handshake over an
// established connection and starts the reader goroutine. On error the
// caller still owns conn.
func NewClient(conn net.Conn, opts ClientOptions) (*Client, error) {
	opts = opts.withDefaults()
	conn.SetDeadline(time.Now().Add(opts.DialTimeout))
	if _, err := conn.Write(AppendHello(nil, Version, Version)); err != nil {
		return nil, fmt.Errorf("wire: hello: %w", err)
	}
	var reply [HelloLen]byte
	if _, err := io.ReadFull(conn, reply[:]); err != nil {
		return nil, fmt.Errorf("wire: hello reply: %w", err)
	}
	version, err := ParseHelloReply(reply[:])
	if err != nil {
		return nil, err
	}
	if version != Version {
		return nil, fmt.Errorf("wire: server answered version %d to a v%d hello", version, Version)
	}
	conn.SetDeadline(time.Time{})
	c := &Client{
		conn:    conn,
		opts:    opts,
		bw:      bufio.NewWriterSize(conn, 16<<10),
		pending: make(map[uint64]chan Frame),
	}
	go c.readLoop()
	return c, nil
}

// Healthy reports whether the connection is still usable.
func (c *Client) Healthy() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dead == nil && !c.closed
}

// Close tears the connection down; pending requests fail.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	err := c.conn.Close()
	c.fail(fmt.Errorf("wire: client closed"))
	return err
}

// fail marks the client dead (first error wins) and resolves every
// pending request by closing its channel.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.dead == nil {
		c.dead = err
	}
	for id, ch := range c.pending {
		close(ch)
		delete(c.pending, id)
	}
	c.mu.Unlock()
}

// readLoop dispatches response frames to their waiting callers.
func (c *Client) readLoop() {
	br := bufio.NewReaderSize(c.conn, 16<<10)
	for {
		f, err := ReadFrame(br, c.opts.MaxFrameBytes)
		if err != nil {
			c.fail(fmt.Errorf("wire: read: %w", err))
			c.conn.Close()
			return
		}
		c.mu.Lock()
		ch, ok := c.pending[f.ID]
		if ok {
			delete(c.pending, f.ID)
		}
		c.mu.Unlock()
		if ok {
			ch <- f // buffered; never blocks the reader
		}
		// A response for an unknown id (a caller that timed out and
		// failed the connection is racing us to die) is dropped.
	}
}

// roundTrip sends one request frame and waits for its response. tc is
// the trace context to attach. A request too big to frame fails before
// it claims an id, leaving the connection and its other callers alone.
func (c *Client) roundTrip(typ byte, payload []byte, tc TraceContext) (Frame, error) {
	if err := checkFrameSize(len(payload), c.opts.MaxFrameBytes); err != nil {
		return Frame{}, fmt.Errorf("wire: write: %w", err)
	}
	id := c.nextID.Add(1)
	ch := make(chan Frame, 1)
	c.mu.Lock()
	if c.dead != nil || c.closed {
		err := c.dead
		c.mu.Unlock()
		if err == nil {
			err = fmt.Errorf("wire: client closed")
		}
		return Frame{}, err
	}
	c.pending[id] = ch
	c.mu.Unlock()

	c.wmu.Lock()
	c.conn.SetWriteDeadline(time.Now().Add(c.opts.RequestTimeout))
	err := WriteFrame(c.bw, Frame{Type: typ, ID: id, Trace: tc, Payload: payload}, c.opts.MaxFrameBytes)
	if err == nil {
		err = c.bw.Flush()
	}
	c.wmu.Unlock()
	if err != nil {
		err = fmt.Errorf("wire: write: %w", err)
		c.fail(err)
		c.conn.Close()
		return Frame{}, err
	}

	// A stopped timer, not time.After: under the module's go 1.22 timer
	// semantics an unstopped timer stays live until it fires, so one per
	// request would pin RequestTimeout's worth of them.
	timer := time.NewTimer(c.opts.RequestTimeout)
	defer timer.Stop()
	select {
	case f, ok := <-ch:
		if !ok {
			c.mu.Lock()
			err := c.dead
			c.mu.Unlock()
			return Frame{}, err
		}
		if f.Type == MsgErr {
			return Frame{}, &RemoteError{Msg: string(f.Payload)}
		}
		return f, nil
	case <-timer.C:
		// The id stays claimed forever if we just walk away; the stream
		// itself may also be wedged. Either way the connection is done.
		err := fmt.Errorf("wire: request %d timed out after %v", id, c.opts.RequestTimeout)
		c.fail(err)
		c.conn.Close()
		return Frame{}, err
	}
}

// expect validates a response frame's type.
func expect(f Frame, want byte) error {
	if f.Type != want {
		return fmt.Errorf("wire: response type 0x%02x, want 0x%02x", f.Type, want)
	}
	return nil
}

// Dist answers one distance query.
func (c *Client) Dist(u, v int32) (oracle.Answer, error) {
	a, _, err := c.DistTraced(u, v, TraceContext{})
	return a, err
}

// DistTraced answers one distance query carrying a trace context and
// returns the server's echoed context (resolution path, sampled bit).
func (c *Client) DistTraced(u, v int32, tc TraceContext) (oracle.Answer, TraceContext, error) {
	f, err := c.roundTrip(MsgDist, AppendQuery(nil, oracle.Query{U: u, V: v}), tc)
	if err != nil {
		return oracle.Answer{}, TraceContext{}, err
	}
	if err := expect(f, MsgDistR); err != nil {
		return oracle.Answer{}, TraceContext{}, err
	}
	a, err := DecodeAnswer(f.Payload)
	return a, f.Trace, err
}

// Batch answers a query batch; the response is index-aligned with qs and
// identical to oracle.AnswerBatch on the serving process.
func (c *Client) Batch(qs []oracle.Query) ([]oracle.Answer, error) {
	as, _, err := c.BatchTraced(qs, TraceContext{})
	return as, err
}

// BatchTraced answers a query batch carrying a trace context; see
// DistTraced for the trace semantics.
func (c *Client) BatchTraced(qs []oracle.Query, tc TraceContext) ([]oracle.Answer, TraceContext, error) {
	f, err := c.roundTrip(MsgBatch, AppendQueries(make([]byte, 0, 4+len(qs)*queryLen), qs), tc)
	if err != nil {
		return nil, TraceContext{}, err
	}
	if err := expect(f, MsgBatchR); err != nil {
		return nil, TraceContext{}, err
	}
	as, err := DecodeAnswers(f.Payload)
	if err != nil {
		return nil, TraceContext{}, err
	}
	if len(as) != len(qs) {
		return nil, TraceContext{}, fmt.Errorf("wire: batch of %d answered with %d answers", len(qs), len(as))
	}
	return as, f.Trace, nil
}

// Update applies one edge mutation (insert when add, delete otherwise)
// to the server's live graph. Servers without a dynamic engine answer a
// RemoteError.
func (c *Client) Update(u, v int32, add bool) (oracle.UpdateResult, error) {
	f, err := c.roundTrip(MsgUpdate, AppendUpdateReq(nil, u, v, add), TraceContext{})
	if err != nil {
		return oracle.UpdateResult{}, err
	}
	if err := expect(f, MsgUpdateR); err != nil {
		return oracle.UpdateResult{}, err
	}
	return DecodeUpdateResult(f.Payload)
}

// Snap fetches the server's dynamic-graph state snapshot; with verify
// set the server also rebuilds its spanner from scratch and reports
// whether the maintained one matches. Servers without a dynamic engine
// answer a RemoteError.
func (c *Client) Snap(verify bool) (oracle.SnapshotInfo, error) {
	f, err := c.roundTrip(MsgSnap, AppendSnapReq(nil, verify), TraceContext{})
	if err != nil {
		return oracle.SnapshotInfo{}, err
	}
	if err := expect(f, MsgSnapR); err != nil {
		return oracle.SnapshotInfo{}, err
	}
	return DecodeSnapshotInfo(f.Payload)
}

// Stats fetches the server's stats report line.
func (c *Client) Stats() (string, error) {
	f, err := c.roundTrip(MsgStats, nil, TraceContext{})
	if err != nil {
		return "", err
	}
	if err := expect(f, MsgStatsR); err != nil {
		return "", err
	}
	return string(f.Payload), nil
}

// Info fetches the serving shape (vertex count, batch limit).
func (c *Client) Info() (Info, error) {
	f, err := c.roundTrip(MsgInfo, nil, TraceContext{})
	if err != nil {
		return Info{}, err
	}
	if err := expect(f, MsgInfoR); err != nil {
		return Info{}, err
	}
	return DecodeInfo(f.Payload)
}
