package obs

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Resolution-path bits: how the oracle answered a query. A request trace
// ORs the bit of every path its queries took, so a batch that mixed
// cache hits with bidirectional searches reports both. The mask travels
// in wire response flags (see internal/wire.ResponseContext), which
// is why it must stay within six bits — the flags byte spends one bit on
// sampling and reserves the top bit.
const (
	PathCache    uint8 = 1 << iota // sharded-LRU cache hit (landmark-bibfs backend)
	PathLandmark                   // landmark-bound fallback; no backend sets it now, the bit keeps its wire position
	PathBiBFS                      // bidirectional BFS
	PathBulk                       // bulk multi-source BFS sweep (batch arm)
	PathExact                      // precomputed all-pairs table (exact-cached backend)
	PathHub                        // hub bunch hit or hub upper bound (sparse-hub backend)
)

// PathString renders a path mask ("cache|bibfs"; "none" for zero).
func PathString(mask uint8) string {
	if mask == 0 {
		return "none"
	}
	var parts []string
	for _, p := range [...]struct {
		bit  uint8
		name string
	}{{PathCache, "cache"}, {PathLandmark, "landmark"}, {PathBiBFS, "bibfs"}, {PathBulk, "bulk"},
		{PathExact, "exact"}, {PathHub, "hub"}} {
		if mask&p.bit != 0 {
			parts = append(parts, p.name)
		}
	}
	return strings.Join(parts, "|")
}

// traceIDCounter seeds NewTraceID; mixed through splitmix64 so ids look
// random (useful as sampling keys) while never colliding in-process.
var traceIDCounter atomic.Uint64

func init() {
	traceIDCounter.Store(uint64(time.Now().UnixNano()))
}

// NewTraceID returns a process-unique 64-bit trace id.
func NewTraceID() uint64 {
	x := traceIDCounter.Add(0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	if x == 0 {
		x = 1 // 0 means "untraced" on the wire
	}
	return x
}

// Hop is one completed stage of a request: where time went, as an offset
// from the request's start plus a duration, with an optional note
// ("n=512 arm=bulk", "q=171 try=0").
type Hop struct {
	Name   string
	Offset time.Duration
	Dur    time.Duration
	Note   string
}

// ReqTrace accumulates the hop breakdown of one in-flight request.
// Every method is safe on a nil receiver and does nothing, so the
// serving hot path threads a trace unconditionally: unsampled requests
// carry a nil pointer and pay only the nil checks.
//
// A trace is written by the goroutines a request fans out to (router
// shards append hops concurrently), hence the mutex; the path mask is a
// separate atomic so oracle workers can OR into it without contending on
// hop appends.
type ReqTrace struct {
	id    uint64
	start time.Time
	path  atomic.Uint32

	mu     sync.Mutex
	verb   string
	detail string
	hops   []Hop
}

// NewReqTrace starts a trace. id 0 allocates a fresh trace id; a nonzero
// id continues a trace started by an upstream process (the wire carries
// it).
func NewReqTrace(id uint64) *ReqTrace {
	if id == 0 {
		id = NewTraceID()
	}
	return &ReqTrace{id: id, start: time.Now()}
}

// ID returns the trace id (0 on nil).
func (tr *ReqTrace) ID() uint64 {
	if tr == nil {
		return 0
	}
	return tr.id
}

// Start returns the trace's start instant.
func (tr *ReqTrace) Start() time.Time {
	if tr == nil {
		return time.Time{}
	}
	return tr.start
}

// SetVerb labels the trace with the request verb and a short detail
// ("batch", "n=512").
func (tr *ReqTrace) SetVerb(verb, detail string) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.verb, tr.detail = verb, detail
	tr.mu.Unlock()
}

// Hop records a stage that began at start and ends now.
func (tr *ReqTrace) Hop(name string, start time.Time, note string) {
	if tr == nil {
		return
	}
	now := time.Now()
	tr.mu.Lock()
	tr.hops = append(tr.hops, Hop{Name: name, Offset: start.Sub(tr.start), Dur: now.Sub(start), Note: note})
	tr.mu.Unlock()
}

// Event records an instantaneous occurrence (a retry, a health flip seen
// mid-request) as a zero-duration hop at the current offset.
func (tr *ReqTrace) Event(name, note string) {
	if tr == nil {
		return
	}
	now := time.Now()
	tr.mu.Lock()
	tr.hops = append(tr.hops, Hop{Name: name, Offset: now.Sub(tr.start), Note: note})
	tr.mu.Unlock()
}

// OrPath merges resolution-path bits into the trace's mask.
func (tr *ReqTrace) OrPath(mask uint8) {
	if tr == nil || mask == 0 {
		return
	}
	for {
		old := tr.path.Load()
		if old|uint32(mask) == old || tr.path.CompareAndSwap(old, old|uint32(mask)) {
			return
		}
	}
}

// Path returns the accumulated resolution-path mask.
func (tr *ReqTrace) Path() uint8 {
	if tr == nil {
		return 0
	}
	return uint8(tr.path.Load())
}

// Hops returns a copy of the recorded hops in append order.
func (tr *ReqTrace) Hops() []Hop {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append([]Hop(nil), tr.hops...)
}

// Finish closes the trace into an immutable record and hands it to the
// flight recorder (fr may be nil — the record is still returned, which
// is what the `trace` verb renders inline). errMsg is empty for
// successful requests.
func (tr *ReqTrace) Finish(fr *FlightRecorder, errMsg string) *TraceRecord {
	if tr == nil {
		return nil
	}
	total := time.Since(tr.start)
	tr.mu.Lock()
	rec := &TraceRecord{
		ID:         fmt.Sprintf("%016x", tr.id),
		Verb:       tr.verb,
		Detail:     tr.detail,
		Start:      tr.start,
		DurationUS: us(total),
		Path:       PathString(uint8(tr.path.Load())),
		Err:        errMsg,
		Hops:       make([]HopRecord, len(tr.hops)),
	}
	for i, h := range tr.hops {
		rec.Hops[i] = HopRecord{Name: h.Name, OffsetUS: us(h.Offset), DurUS: us(h.Dur), Note: h.Note}
	}
	tr.mu.Unlock()
	fr.Record(rec)
	return rec
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// Line renders a completed record as one text-protocol-friendly line:
//
//	id=9a… path=bibfs total=812.4µs hops=[queue +0µs/31µs; oracle +32µs/700µs …]
func (r *TraceRecord) Line() string {
	var b strings.Builder
	fmt.Fprintf(&b, "id=%s path=%s total=%.1fµs hops=[", r.ID, r.Path, r.DurationUS)
	for i, h := range r.Hops {
		if i > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "%s +%.1fµs/%.1fµs", h.Name, h.OffsetUS, h.DurUS)
		if h.Note != "" {
			fmt.Fprintf(&b, " (%s)", h.Note)
		}
	}
	b.WriteString("]")
	if r.Err != "" {
		fmt.Fprintf(&b, " err=%q", r.Err)
	}
	return b.String()
}
