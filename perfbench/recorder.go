package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from this package around
// the call. Times are nanoseconds since the recorder started. Parent is
// the index of the enclosing span in the same shard, -1 for a root; Req
// groups the spans of one request.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Req    uint64 `json:"req"`
	Shard  int    `json:"shard"`
}

// recorder keeps spans in memory, one append-only shard per goroutine so
// recording takes no lock, and writes them out once the run ends. It
// costs two clock reads and one append per span, unlike obs.Span, which
// reads runtime.MemStats at both ends. A shard holds at most shardSpans
// spans; a load loop stops once its shard is full, which bounds memory
// and the dump whatever the request rate.
type recorder struct {
	t0     time.Time
	mu     sync.Mutex
	shards []*spanShard
}

type spanShard struct {
	rec   *recorder
	id    int
	spans []span
}

const shardSpans = 1 << 18

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// shard returns a new shard for one goroutine. A nil recorder returns a
// nil shard, whose methods do nothing: the untraced run calls the same
// code without recording.
func (r *recorder) shard() *spanShard {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &spanShard{rec: r, id: len(r.shards), spans: make([]span, 0, 1<<12)}
	r.shards = append(r.shards, s)
	return s
}

// full reports whether the shard has no room for another request's spans.
func (s *spanShard) full() bool { return s != nil && len(s.spans) > shardSpans-8 }

func (s *spanShard) begin(name string, parent int32, req uint64) int32 {
	if s == nil || len(s.spans) == shardSpans {
		return -1
	}
	s.spans = append(s.spans, span{Name: name, Start: int64(time.Since(s.rec.t0)), End: -1, Parent: parent, Req: req, Shard: s.id})
	return int32(len(s.spans) - 1)
}

func (s *spanShard) end(i int32) {
	if s == nil || i < 0 {
		return
	}
	s.spans[i].End = int64(time.Since(s.rec.t0))
}

// now is the recorder clock: time since the recorder started.
func (s *spanShard) now() time.Duration {
	if s == nil {
		return 0
	}
	return time.Since(s.rec.t0)
}

// add records a span whose bounds were measured elsewhere (the phase
// tree of an obs.Span, which exposes durations only).
func (s *spanShard) add(name string, start, end time.Duration, parent int32, req uint64) int32 {
	if s == nil || len(s.spans) == shardSpans {
		return -1
	}
	s.spans = append(s.spans, span{Name: name, Start: int64(start), End: int64(end), Parent: parent, Req: req, Shard: s.id})
	return int32(len(s.spans) - 1)
}

func (r *recorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, s := range r.shards {
		n += len(s.spans)
	}
	return n
}

// dump writes every span as one JSON line to dir/spans-<workload>-<seed>.jsonl.
func (r *recorder) dump(dir, workload string, seed uint64) error {
	if dir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("spans-%s-%d.jsonl", workload, seed)))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.shards {
		for _, sp := range s.spans {
			if err := enc.Encode(sp); err != nil {
				r.mu.Unlock()
				f.Close()
				return err
			}
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
