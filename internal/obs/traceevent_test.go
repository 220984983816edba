package obs

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestWriteTraceEvents checks the Chrome trace-event JSON shape Perfetto
// expects: a traceEvents array of ph="X" complete events with
// microsecond ts/dur relative to the root, args carrying span KVs, and
// displayTimeUnit ms.
func TestWriteTraceEvents(t *testing.T) {
	root := StartSpan("build")
	c := root.Start("sample")
	c.SetKV("kept", 10)
	time.Sleep(2 * time.Millisecond)
	c.End()
	root.End()

	var b strings.Builder
	if err := WriteTraceEvents(&b, root); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal([]byte(b.String()), &out); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, b.String())
	}
	if out.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", out.DisplayTimeUnit)
	}
	if len(out.TraceEvents) != 2 {
		t.Fatalf("events = %d, want 2", len(out.TraceEvents))
	}
	rootEv, childEv := out.TraceEvents[0], out.TraceEvents[1]
	if rootEv.Name != "build" || childEv.Name != "sample" {
		t.Errorf("event names = %q, %q", rootEv.Name, childEv.Name)
	}
	for _, ev := range out.TraceEvents {
		if ev.Ph != "X" || ev.Cat != "build" || ev.PID != 1 || ev.TID != 1 {
			t.Errorf("event header = %+v", ev)
		}
	}
	if rootEv.TS != 0 {
		t.Errorf("root ts = %v, want 0 (offsets are root-relative)", rootEv.TS)
	}
	if childEv.TS < 0 || childEv.Dur < 1000 { // slept 2ms inside the child
		t.Errorf("child ts/dur = %v/%v µs", childEv.TS, childEv.Dur)
	}
	if childEv.TS+childEv.Dur > rootEv.Dur+1 {
		t.Errorf("child [%v, %v] escapes root dur %v", childEv.TS, childEv.TS+childEv.Dur, rootEv.Dur)
	}
	if childEv.Args["kept"] != "10" {
		t.Errorf("child args = %v", childEv.Args)
	}
}

// TestWriteTraceEventsRunningSpan: an unended span renders with its
// elapsed-so-far duration rather than zero.
func TestWriteTraceEventsRunningSpan(t *testing.T) {
	root := StartSpan("build")
	time.Sleep(time.Millisecond)
	var b strings.Builder
	if err := WriteTraceEvents(&b, root); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Dur float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.TraceEvents) != 1 || out.TraceEvents[0].Dur < 500 {
		t.Errorf("running span events = %+v", out.TraceEvents)
	}
	root.End()
}

func TestWriteTraceEventsNilRoot(t *testing.T) {
	var b strings.Builder
	if err := WriteTraceEvents(&b, nil); err == nil {
		t.Fatal("nil root accepted")
	}
	if b.Len() != 0 {
		t.Errorf("nil root wrote output: %q", b.String())
	}
}
