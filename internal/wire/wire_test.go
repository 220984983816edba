package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/oracle"
)

func TestHelloRoundTrip(t *testing.T) {
	b := AppendHello(nil, 2, 7)
	if len(b) != HelloLen {
		t.Fatalf("hello is %d bytes, want %d", len(b), HelloLen)
	}
	minV, maxV, err := ParseHello(b)
	if err != nil || minV != 2 || maxV != 7 {
		t.Fatalf("ParseHello = (%d,%d,%v), want (2,7,nil)", minV, maxV, err)
	}
	if _, _, err := ParseHello(b[:5]); err == nil {
		t.Fatal("short hello accepted")
	}
	bad := append([]byte(nil), b...)
	bad[0] = 'x'
	if _, _, err := ParseHello(bad); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic error = %v, want ErrBadMagic", err)
	}

	r := AppendHelloReply(nil, 2)
	v, err := ParseHelloReply(r)
	if err != nil || v != 2 {
		t.Fatalf("ParseHelloReply = (%d,%v), want (2,nil)", v, err)
	}
}

func TestMagicByteIsNonASCII(t *testing.T) {
	// The protocol sniffer relies on no text request starting with the
	// magic byte; ASCII (or even valid UTF-8 single bytes) would break it.
	if Magic[0] != MagicByte || MagicByte < 0x80 {
		t.Fatalf("Magic[0] = 0x%02x must be the non-ASCII MagicByte", Magic[0])
	}
}

func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		{Type: MsgStats, ID: 1},
		{Type: MsgDist, ID: 0xdeadbeef, Payload: AppendQuery(nil, oracle.Query{U: 3, V: -1})},
		{Type: MsgBatchR, ID: 1 << 60, Payload: bytes.Repeat([]byte{0xab}, 999)},
	}
	var buf bytes.Buffer
	for _, f := range frames {
		if err := WriteFrame(&buf, f, 0); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
	}
	for i, want := range frames {
		got, err := ReadFrame(&buf, 0)
		if err != nil {
			t.Fatalf("ReadFrame %d: %v", i, err)
		}
		if got.Type != want.Type || got.ID != want.ID || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d: got %+v, want %+v", i, got, want)
		}
	}
	if _, err := ReadFrame(&buf, 0); err != io.EOF {
		t.Fatalf("trailing read = %v, want EOF", err)
	}
}

// TestFrameV3RoundTrip pins the trace context, which every frame has
// carried since protocol version 3: id and flags survive the round trip.
func TestFrameV3RoundTrip(t *testing.T) {
	want := Frame{
		Type:    MsgBatch,
		ID:      42,
		Trace:   TraceContext{ID: 0x0123456789abcdef, Flags: TraceFlagSampled},
		Payload: []byte{1, 2, 3, 4},
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, want, 0); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	got, err := ReadFrame(&buf, 0)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if got.Type != want.Type || got.ID != want.ID || got.Trace != want.Trace || !bytes.Equal(got.Payload, want.Payload) {
		t.Fatalf("round trip = %+v, want %+v", got, want)
	}
}

func TestFrameLimits(t *testing.T) {
	// Oversized length prefix: rejected after 4 bytes, before allocation.
	huge := binary.BigEndian.AppendUint32(nil, 1<<31)
	if _, err := ReadFrame(bytes.NewReader(huge), 1024); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("oversized frame error = %v, want ErrFrameTooBig", err)
	}
	// Undersized length prefix (body can't hold type+id+trace).
	tiny := binary.BigEndian.AppendUint32(nil, 3)
	if _, err := ReadFrame(bytes.NewReader(tiny), 1024); !errors.Is(err, ErrShortFrame) {
		t.Fatalf("short frame error = %v, want ErrShortFrame", err)
	}
	// Truncated body.
	trunc := AppendFrame(nil, Frame{Type: MsgStats, ID: 9, Payload: []byte("abcdef")})
	if _, err := ReadFrame(bytes.NewReader(trunc[:len(trunc)-3]), 1024); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated frame error = %v, want ErrUnexpectedEOF", err)
	}
	// Writer refuses frames its peer would reject.
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Frame{Type: MsgStats, ID: 1, Payload: make([]byte, 100)}, 50); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("oversized write error = %v, want ErrFrameTooBig", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("rejected write still emitted %d bytes", buf.Len())
	}
}

func TestQueryAnswerCodecs(t *testing.T) {
	qs := []oracle.Query{{U: 0, V: 0}, {U: 7, V: 12}, {U: -1, V: 1 << 30}}
	got, err := DecodeQueries(AppendQueries(nil, qs))
	if err != nil {
		t.Fatalf("DecodeQueries: %v", err)
	}
	if len(got) != len(qs) {
		t.Fatalf("decoded %d queries, want %d", len(got), len(qs))
	}
	for i := range qs {
		if got[i] != qs[i] {
			t.Fatalf("query %d: got %+v, want %+v", i, got[i], qs[i])
		}
	}

	as := []oracle.Answer{
		{U: 1, V: 2, Dist: 3, Bound: 5, Exact: true},
		{U: 0, V: 9, Dist: -1, Bound: -1, Exact: false}, // Unreachable sentinels survive
	}
	back, err := DecodeAnswers(AppendAnswers(nil, as))
	if err != nil {
		t.Fatalf("DecodeAnswers: %v", err)
	}
	for i := range as {
		if back[i] != as[i] {
			t.Fatalf("answer %d: got %+v, want %+v", i, back[i], as[i])
		}
	}

	// Count/byte disagreement must error, not allocate the declared count.
	lying := AppendQueries(nil, qs)
	binary.BigEndian.PutUint32(lying[:4], 1<<30)
	if _, err := DecodeQueries(lying); err == nil || !strings.Contains(err.Error(), "declares") {
		t.Fatalf("lying count error = %v", err)
	}
	lyingA := AppendAnswers(nil, as)
	binary.BigEndian.PutUint32(lyingA[:4], 7)
	if _, err := DecodeAnswers(lyingA); err == nil {
		t.Fatal("lying answer count accepted")
	}
}

func TestInfoCodec(t *testing.T) {
	info := Info{N: 4096, MaxBatch: 16384}
	got, err := DecodeInfo(AppendInfo(nil, info))
	if err != nil || got != info {
		t.Fatalf("info round trip = (%+v, %v), want (%+v, nil)", got, err, info)
	}
	if _, err := DecodeInfo([]byte{1, 2, 3}); err == nil {
		t.Fatal("short info accepted")
	}
}

func TestTraceContextFlags(t *testing.T) {
	tc := ResponseContext(9, true, 0xA)
	if !tc.Sampled() || tc.PathMask() != 0xA || tc.ID != 9 {
		t.Fatalf("ResponseContext = %+v (sampled=%v mask=%#x)", tc, tc.Sampled(), tc.PathMask())
	}
	tc = ResponseContext(9, false, 0x1)
	if tc.Sampled() {
		t.Fatal("unsampled response context reports sampled")
	}
	if tc.PathMask() != 0x1 {
		t.Fatalf("mask = %#x, want 0x1", tc.PathMask())
	}
	// Masks wider than six bits must not bleed into other flag bits.
	tc = ResponseContext(9, false, 0xFF)
	if tc.PathMask() != 0x3F {
		t.Fatalf("wide mask = %#x, want clamp to 0x3F", tc.PathMask())
	}
	if tc.Sampled() {
		t.Fatal("wide mask leaked into the sampled bit")
	}
}

func TestUpdateSnapRoundTrip(t *testing.T) {
	wantRes := oracle.UpdateResult{Applied: true, M: 123, HM: 77, Seq: 42}
	wantInfo := oracle.SnapshotInfo{
		N: 64, M: 123, HM: 77, Seq: 42,
		GraphHash: 0x0123456789abcdef, SpannerHash: 0xfedcba9876543210,
		Verified: true, Consistent: true,
	}
	addr := stubServer(t, func(f Frame) *Frame {
		switch f.Type {
		case MsgUpdate:
			u, v, add, err := DecodeUpdateReq(f.Payload)
			if err != nil || u != 3 || v != 9 || add {
				return &Frame{Type: MsgErr, ID: f.ID, Payload: []byte("bad update req")}
			}
			return &Frame{Type: MsgUpdateR, ID: f.ID, Payload: AppendUpdateResult(nil, wantRes)}
		case MsgSnap:
			verify, err := DecodeSnapReq(f.Payload)
			if err != nil || !verify {
				return &Frame{Type: MsgErr, ID: f.ID, Payload: []byte("bad snap req")}
			}
			return &Frame{Type: MsgSnapR, ID: f.ID, Payload: AppendSnapshotInfo(nil, wantInfo)}
		}
		return &Frame{Type: MsgErr, ID: f.ID, Payload: []byte("unexpected type")}
	})
	c, err := Dial(addr, ClientOptions{RequestTimeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	res, err := c.Update(3, 9, false)
	if err != nil || res != wantRes {
		t.Fatalf("Update = (%+v, %v), want %+v", res, err, wantRes)
	}
	info, err := c.Snap(true)
	if err != nil || info != wantInfo {
		t.Fatalf("Snap = (%+v, %v), want %+v", info, err, wantInfo)
	}
}
