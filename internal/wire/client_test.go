package wire

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/oracle"
)

// stubServer accepts one binary connection and answers frames with fn
// (nil return = drop the request silently). Responses go out as fn
// returns, which lets tests answer out of order.
func stubServer(t *testing.T, fn func(f Frame) *Frame) (addr string) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		hello := make([]byte, HelloLen)
		if _, err := io.ReadFull(conn, hello); err != nil {
			return
		}
		if cMin, cMax, err := ParseHello(hello); err != nil || cMin > Version || cMax < Version {
			conn.Write(AppendHelloReply(nil, 0))
			return
		}
		conn.Write(AppendHelloReply(nil, Version))
		br := bufio.NewReader(conn)
		var wmu sync.Mutex
		for {
			f, err := ReadFrame(br, DefaultMaxFrameBytes)
			if err != nil {
				return
			}
			go func(f Frame) {
				if resp := fn(f); resp != nil {
					wmu.Lock()
					defer wmu.Unlock()
					WriteFrame(conn, *resp, DefaultMaxFrameBytes)
				}
			}(f)
		}
	}()
	return l.Addr().String()
}

func TestClientPipelinesOutOfOrder(t *testing.T) {
	// Hold the first dist response until the second has gone out; the
	// client must still resolve both calls correctly by id.
	release := make(chan struct{})
	var once sync.Once
	addr := stubServer(t, func(f Frame) *Frame {
		q, err := DecodeQuery(f.Payload)
		if err != nil {
			return &Frame{Type: MsgErr, ID: f.ID, Payload: []byte(err.Error())}
		}
		if q.U == 0 { // the slow request waits for the fast one
			<-release
		} else {
			once.Do(func() { close(release) })
		}
		return &Frame{Type: MsgDistR, ID: f.ID,
			Payload: AppendAnswer(nil, oracle.Answer{U: q.U, V: q.V, Dist: q.U + q.V, Exact: true})}
	})
	c, err := Dial(addr, ClientOptions{RequestTimeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	type result struct {
		a   oracle.Answer
		err error
	}
	slow := make(chan result, 1)
	go func() {
		a, err := c.Dist(0, 5)
		slow <- result{a, err}
	}()
	// Give the slow request time to be parked server-side, then overtake.
	time.Sleep(20 * time.Millisecond)
	a, err := c.Dist(3, 4)
	if err != nil || a.Dist != 7 {
		t.Fatalf("fast Dist = (%+v, %v), want dist 7", a, err)
	}
	r := <-slow
	if r.err != nil || r.a.Dist != 5 {
		t.Fatalf("slow Dist = (%+v, %v), want dist 5", r.a, r.err)
	}
}

func TestClientConcurrentCallers(t *testing.T) {
	addr := stubServer(t, func(f Frame) *Frame {
		q, err := DecodeQuery(f.Payload)
		if err != nil {
			return &Frame{Type: MsgErr, ID: f.ID, Payload: []byte(err.Error())}
		}
		return &Frame{Type: MsgDistR, ID: f.ID,
			Payload: AppendAnswer(nil, oracle.Answer{U: q.U, V: q.V, Dist: q.U ^ q.V, Exact: true})}
	})
	c, err := Dial(addr, ClientOptions{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				u, v := int32(g), int32(i)
				a, err := c.Dist(u, v)
				if err != nil {
					t.Errorf("Dist(%d,%d): %v", u, v, err)
					return
				}
				if a.Dist != u^v {
					t.Errorf("Dist(%d,%d) = %d, want %d", u, v, a.Dist, u^v)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestClientRemoteError(t *testing.T) {
	addr := stubServer(t, func(f Frame) *Frame {
		return &Frame{Type: MsgErr, ID: f.ID, Payload: []byte("nope")}
	})
	c, err := Dial(addr, ClientOptions{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	_, err = c.Stats()
	var re *RemoteError
	if !errors.As(err, &re) || re.Msg != "nope" {
		t.Fatalf("err = %v, want RemoteError{nope}", err)
	}
	if !c.Healthy() {
		t.Fatal("a remote error must not kill the connection")
	}
}

// A request too big to frame is refused locally before it claims an id:
// the error reaches only its caller, a request already in flight on the
// same connection still gets its answer, and later requests still work.
func TestClientOversizeRequestKeepsConnection(t *testing.T) {
	received := make(chan struct{}, 1)
	release := make(chan struct{})
	addr := stubServer(t, func(f Frame) *Frame {
		q, err := DecodeQuery(f.Payload)
		if err != nil {
			return &Frame{Type: MsgErr, ID: f.ID, Payload: []byte(err.Error())}
		}
		if q.U == 1 { // the in-flight request waits for the oversize one
			received <- struct{}{}
			<-release
		}
		return &Frame{Type: MsgDistR, ID: f.ID,
			Payload: AppendAnswer(nil, oracle.Answer{U: q.U, V: q.V, Dist: q.U + q.V, Exact: true})}
	})
	c, err := Dial(addr, ClientOptions{RequestTimeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	inflight := make(chan error, 1)
	go func() {
		a, err := c.Dist(1, 2)
		if err == nil && a.Dist != 3 {
			err = fmt.Errorf("in-flight Dist = %d, want 3", a.Dist)
		}
		inflight <- err
	}()
	<-received

	// 140,000 queries are a 1.12 MB payload against the 1 MiB limit.
	if _, err := c.Batch(make([]oracle.Query, 140000)); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("oversize Batch error = %v, want ErrFrameTooBig", err)
	}
	close(release)
	if err := <-inflight; err != nil {
		t.Fatalf("in-flight request failed with the oversize one: %v", err)
	}
	if !c.Healthy() {
		t.Fatal("a locally refused request killed the connection")
	}
	if a, err := c.Dist(4, 5); err != nil || a.Dist != 9 {
		t.Fatalf("Dist after the oversize Batch = (%+v, %v), want dist 9", a, err)
	}
}

func TestClientRequestTimeoutKillsConnection(t *testing.T) {
	addr := stubServer(t, func(f Frame) *Frame { return nil }) // black hole
	c, err := Dial(addr, ClientOptions{RequestTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if _, err := c.Stats(); err == nil {
		t.Fatal("black-holed request returned nil error")
	}
	if c.Healthy() {
		t.Fatal("client still healthy after a request timeout")
	}
	if _, err := c.Stats(); err == nil {
		t.Fatal("dead client accepted another request")
	}
}

func TestClientServerDisconnectFailsPending(t *testing.T) {
	addr := stubServer(t, func(f Frame) *Frame {
		// Never answer; the test kills the client-side conn instead.
		return nil
	})
	c, err := Dial(addr, ClientOptions{RequestTimeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.Stats()
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	c.conn.Close() // simulate the peer dropping mid-request
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("pending request resolved nil after disconnect")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending request hung after disconnect")
	}
}

// Request timers must die with their requests. Under the module's go
// 1.22 timer semantics an unstopped time.After timer stays live until it
// fires, so a per-request one would pin ~20k timers (channel included)
// for the whole RequestTimeout here; stopping it on return keeps the
// heap flat.
func TestClientRequestTimersDoNotAccumulate(t *testing.T) {
	addr := stubServer(t, func(f Frame) *Frame {
		q, err := DecodeQuery(f.Payload)
		if err != nil {
			return &Frame{Type: MsgErr, ID: f.ID, Payload: []byte(err.Error())}
		}
		return &Frame{Type: MsgDistR, ID: f.ID, Payload: AppendAnswer(nil, oracle.Answer{U: q.U, V: q.V})}
	})
	c, err := Dial(addr, ClientOptions{RequestTimeout: time.Hour})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	run := func(k int) {
		for i := 0; i < k; i++ {
			if _, err := c.Dist(int32(i%7), 9); err != nil {
				t.Fatalf("Dist: %v", err)
			}
		}
	}
	run(1000) // warm buffers, maps and goroutine stacks
	before := heap()
	const requests = 20000
	run(requests)
	if grew := int64(heap()) - int64(before); grew > 1<<20 {
		t.Fatalf("heap grew %d bytes over %d requests (%.0f B/request): request timers are leaking",
			grew, requests, float64(grew)/requests)
	}
}
