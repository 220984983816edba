package obs

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

func rec(id int, durUS float64, errMsg string) *TraceRecord {
	return &TraceRecord{
		ID:         fmt.Sprintf("%016x", id),
		Verb:       "dist",
		DurationUS: durUS,
		Path:       "bibfs",
		Err:        errMsg,
	}
}

// TestFlightRecorderRings: the recent ring wraps keeping the newest
// records (newest first on drain); the slow ring takes only
// over-threshold or errored requests.
func TestFlightRecorderRings(t *testing.T) {
	fr := NewFlightRecorder(4, 2, 10*time.Millisecond)
	for i := 1; i <= 6; i++ {
		fr.Record(rec(i, 100, "")) // fast, clean: recent ring only
	}
	fr.Record(rec(7, 20_000, "")) // over threshold
	fr.Record(rec(8, 50, "boom")) // errored but fast
	fr.Record(rec(9, 10_000, "")) // exactly at threshold counts as slow
	if got := fr.Recorded(); got != 9 {
		t.Fatalf("Recorded = %d, want 9", got)
	}

	recent := fr.Recent()
	if len(recent) != 4 {
		t.Fatalf("recent holds %d, want ring capacity 4", len(recent))
	}
	for i, wantID := range []int{9, 8, 7, 6} { // newest first
		if recent[i].ID != fmt.Sprintf("%016x", wantID) {
			t.Errorf("recent[%d] = %s, want id %d", i, recent[i].ID, wantID)
		}
	}

	slow := fr.Slow()
	if len(slow) != 2 {
		t.Fatalf("slow holds %d, want 2", len(slow))
	}
	for i, wantID := range []int{9, 8} {
		if slow[i].ID != fmt.Sprintf("%016x", wantID) {
			t.Errorf("slow[%d] = %s, want id %d", i, slow[i].ID, wantID)
		}
	}
}

func TestFlightRecorderNilSafe(t *testing.T) {
	var fr *FlightRecorder
	fr.Record(rec(1, 1, ""))
	fr.Record(nil)
	if fr.Recorded() != 0 || fr.Recent() != nil || fr.Slow() != nil || fr.Threshold() != 0 {
		t.Error("nil recorder accessors not zero")
	}
	NewFlightRecorder(0, 0, 0).Record(nil) // nil record on a live recorder
}

func TestFlightRecorderDefaults(t *testing.T) {
	fr := NewFlightRecorder(0, 0, 0)
	if len(fr.recent) != 256 || len(fr.slow) != 64 {
		t.Errorf("default rings = %d/%d, want 256/64", len(fr.recent), len(fr.slow))
	}
	if fr.Threshold() != DefaultSlowThreshold {
		t.Errorf("default threshold = %v", fr.Threshold())
	}
}

// TestFlightRecorderConcurrent is the lock-free claim under -race: many
// writers recording while readers drain and scrape.
func TestFlightRecorderConcurrent(t *testing.T) {
	fr := NewFlightRecorder(8, 4, time.Millisecond)
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				fr.Record(rec(w*perWorker+i, float64(i), ""))
				if i%50 == 0 {
					_ = fr.Recent()
					_ = fr.Slow()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := fr.Recorded(); got != workers*perWorker {
		t.Fatalf("Recorded = %d, want %d", got, workers*perWorker)
	}
	if got := len(fr.Recent()); got != 8 {
		t.Fatalf("recent holds %d, want 8", got)
	}
}

// TestFlightRecorderHandler checks the /debug/requests JSON shape.
func TestFlightRecorderHandler(t *testing.T) {
	fr := NewFlightRecorder(4, 2, 10*time.Millisecond)
	fr.Record(&TraceRecord{
		ID: "00000000000000aa", Verb: "batch", Detail: "n=16",
		DurationUS: 25_000, Path: "cache|bulk",
		Hops: []HopRecord{{Name: "queue", OffsetUS: 0, DurUS: 3}, {Name: "oracle", OffsetUS: 3, DurUS: 24_900, Note: "arm=bulk"}},
	})
	w := httptest.NewRecorder()
	fr.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/debug/requests", nil))
	if ct := w.Header().Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Errorf("Content-Type = %q", ct)
	}
	var body struct {
		Recorded        int64          `json:"recorded"`
		SlowThresholdUS int64          `json:"slow_threshold_us"`
		Requests        []*TraceRecord `json:"requests"`
		Slow            []*TraceRecord `json:"slow"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatalf("response is not JSON: %v\n%s", err, w.Body.String())
	}
	if body.Recorded != 1 || body.SlowThresholdUS != 10_000 {
		t.Errorf("recorded/threshold = %d/%d", body.Recorded, body.SlowThresholdUS)
	}
	if len(body.Requests) != 1 || len(body.Slow) != 1 {
		t.Fatalf("requests/slow = %d/%d, want 1/1", len(body.Requests), len(body.Slow))
	}
	got := body.Requests[0]
	if got.Verb != "batch" || got.Path != "cache|bulk" || len(got.Hops) != 2 || got.Hops[1].Note != "arm=bulk" {
		t.Errorf("round-tripped record = %+v", got)
	}
}

func TestFlightRecorderAttachMetrics(t *testing.T) {
	fr := NewFlightRecorder(4, 2, 0)
	reg := NewRegistry()
	fr.AttachMetrics(reg)
	fr.Record(rec(1, 1, ""))
	fr.Record(rec(2, 1, ""))
	if got := reg.Snapshot().Counters["obs_traces_recorded"]; got != 2 {
		t.Errorf("obs_traces_recorded = %d, want 2", got)
	}
	var nilFR *FlightRecorder
	nilFR.AttachMetrics(reg) // must not register or panic
	fr.AttachMetrics(nil)
}
