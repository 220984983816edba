// Package obs is the repository's telemetry subsystem: a metrics
// Registry of named counters, gauges, and histograms with Prometheus
// text-format exposition (registry.go, this file), nestable build-phase
// spans (trace.go), and a debug HTTP server wiring /metrics, /healthz,
// and net/http/pprof together (debug.go). It is stdlib-only and builds on
// the lock-free primitives of internal/stats, so instrumented hot paths
// pay one atomic op per event.
//
// One Registry is intended to be process-wide: cmd/dcserve creates a
// single Registry and the oracle, the serving layer, and the Go runtime
// metrics all register into it, so the wire `stats` response, the
// /metrics endpoint, and the demo summary render from one consistent
// snapshot. Libraries take a *Registry (nil means "create a private
// one") rather than sharing a package-level default, so tests can hold
// many instances without name collisions.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/stats"
)

// Counter is a monotonically increasing metric owned by a Registry.
type Counter struct{ v atomic.Int64 }

// Add increments the counter; negative deltas are a programming error and
// are ignored to keep the counter monotonic.
func (c *Counter) Add(delta int64) {
	if delta > 0 {
		c.v.Add(delta)
	}
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is a settable instantaneous metric owned by a Registry.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Load returns the current value.
func (g *Gauge) Load() float64 { return math.Float64frombits(g.bits.Load()) }

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// Exemplar is an optional trace-id attachment for a histogram: the last
// sampled observation's trace id and value, rendered after the +Inf
// bucket in the exposition (OpenMetrics-style `# {trace_id="…"} v`).
// Store is one atomic pointer swap; an Exemplar is nil-safe so unsampled
// hot paths skip it entirely.
type Exemplar struct {
	p atomic.Pointer[exemplarSample]
}

type exemplarSample struct {
	traceID uint64
	value   float64
}

// Observe records the observation value for trace id — the latest sample
// wins, which is all an exemplar needs to make a histogram bucket
// clickable back to a concrete trace.
func (e *Exemplar) Observe(traceID uint64, v float64) {
	if e == nil {
		return
	}
	e.p.Store(&exemplarSample{traceID: traceID, value: v})
}

// metric is one registered entry: a read function for scalar kinds, the
// histogram itself for kindHistogram. labels is the pre-rendered
// inside-the-braces label text (`dir="up"`), empty for plain metrics.
type metric struct {
	name, labels, help string
	kind               metricKind
	readInt            func() int64
	readFloat          func() float64
	hist               *stats.Histogram
	ex                 *Exemplar
}

// key is the registration key: name plus the label set, so the same
// family name may carry several label values.
func (m *metric) key() string {
	if m.labels == "" {
		return m.name
	}
	return m.name + "{" + m.labels + "}"
}

// Registry is a named-metric table safe for concurrent registration,
// observation, and export. Metric names are frozen at registration
// (duplicates panic — a programming error, matching stats.NewCounters)
// and exported in sorted order so the Prometheus text rendering is stable.
type Registry struct {
	mu      sync.RWMutex
	metrics map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

// register validates and stores m; it panics on duplicate or invalid
// names (labels distinguish entries within one family).
func (r *Registry) register(m *metric) {
	if !validMetricName(m.name) {
		panic("obs: invalid metric name " + strconv.Quote(m.name))
	}
	key := m.key()
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.metrics[key]; dup {
		panic("obs: duplicate metric " + key)
	}
	r.metrics[key] = m
}

// renderLabels builds the inside-the-braces label text for one
// key/value pair, escaping the value per the exposition format.
func renderLabels(label, value string) string {
	if !validMetricName(label) {
		panic("obs: invalid label name " + strconv.Quote(label))
	}
	v := strings.ReplaceAll(value, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return label + `="` + v + `"`
}

// validMetricName reports whether name matches the Prometheus metric name
// grammar [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		ok := c == '_' || c == ':' ||
			('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') ||
			(i > 0 && '0' <= c && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// Counter creates, registers, and returns a new owned counter. The
// exported sample name carries the conventional _total suffix, which
// callers must not include in name.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(&metric{name: name, help: help, kind: kindCounter, readInt: c.Load})
	return c
}

// CounterFunc registers a counter whose value is produced by fn at
// export/snapshot time — the adapter for pre-existing atomics (the
// oracle's query counters, cache hit counts).
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	r.register(&metric{name: name, help: help, kind: kindCounter, readInt: fn})
}

// CounterLabeled creates a counter under name with one label pair, so a
// family like router_worker_transitions can split into dir="up" /
// dir="down" series. The family's HELP/TYPE header is emitted once.
func (r *Registry) CounterLabeled(name, help, label, value string) *Counter {
	c := &Counter{}
	r.register(&metric{name: name, labels: renderLabels(label, value), help: help,
		kind: kindCounter, readInt: c.Load})
	return c
}

// CounterFuncLabeled is CounterFunc with one label pair.
func (r *Registry) CounterFuncLabeled(name, help, label, value string, fn func() int64) {
	r.register(&metric{name: name, labels: renderLabels(label, value), help: help,
		kind: kindCounter, readInt: fn})
}

// Gauge creates, registers, and returns a new owned gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(&metric{name: name, help: help, kind: kindGauge, readFloat: g.Load})
	return g
}

// GaugeFunc registers a gauge read from fn at export/snapshot time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&metric{name: name, help: help, kind: kindGauge, readFloat: fn})
}

// GaugeFuncLabeled is GaugeFunc with one label pair — the shape behind
// info-style gauges like oracle_backend_info{backend="..."} 1.
func (r *Registry) GaugeFuncLabeled(name, help, label, value string, fn func() float64) {
	r.register(&metric{name: name, labels: renderLabels(label, value), help: help,
		kind: kindGauge, readFloat: fn})
}

// Histogram creates, registers, and returns a new histogram with the
// given bucket upper bounds (see stats.NewHistogram).
func (r *Registry) Histogram(name, help string, bounds []float64) *stats.Histogram {
	h := stats.NewHistogram(bounds)
	r.RegisterHistogram(name, help, h)
	return h
}

// RegisterHistogram adopts an existing stats.Histogram — the path by
// which the oracle's latency histograms join the registry without being
// rebuilt.
func (r *Registry) RegisterHistogram(name, help string, h *stats.Histogram) {
	if h == nil {
		panic("obs: RegisterHistogram with nil histogram")
	}
	r.register(&metric{name: name, help: help, kind: kindHistogram, hist: h})
}

// HistogramExemplar creates and registers a histogram with an attached
// exemplar slot: observations go to the histogram as usual, and sampled
// requests additionally call Exemplar.Observe with their trace id so the
// exposition links the latency distribution to a concrete recent trace.
func (r *Registry) HistogramExemplar(name, help string, bounds []float64) (*stats.Histogram, *Exemplar) {
	h := stats.NewHistogram(bounds)
	ex := &Exemplar{}
	r.register(&metric{name: name, help: help, kind: kindHistogram, hist: h, ex: ex})
	return h, ex
}

// AttachCounters registers every counter of a stats.Counters set as
// prefix_<name>, reading through Snapshot order. The serving layer uses
// this to expose its request/error counters without changing its hot
// path.
func (r *Registry) AttachCounters(prefix string, c *stats.Counters) {
	for _, cv := range c.Snapshot() {
		name := cv.Name
		r.CounterFunc(prefix+"_"+name, "Counter "+name+" of the "+prefix+" set.",
			func() int64 { return c.Get(name) })
	}
}

// snapEntry is one metric's point-in-time value plus the metadata needed
// to render it, captured by Snapshot.
type snapEntry struct {
	name, labels, help string
	kind               metricKind
	intVal             int64
	floatVal           float64
	hist               stats.HistogramBuckets
	ex                 *exemplarSample
}

// Snapshot is a point-in-time read of every registered metric: each
// scalar loaded exactly once, each histogram captured via
// stats.Histogram.Buckets (itself internally consistent). Derived ratios
// computed from one Snapshot therefore agree with each other, and
// WritePrometheus renders from the same capture — so a scrape, the text
// `stats` verb, and any report derived from one Snapshot all describe
// the same instant. Labeled series appear in the maps under
// `name{label="value"}` keys.
type Snapshot struct {
	Counters   map[string]int64
	Gauges     map[string]float64
	Histograms map[string]stats.HistogramBuckets

	entries []snapEntry // sorted by (name, labels); drives WritePrometheus
}

// Snapshot captures all metrics.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]stats.HistogramBuckets),
	}
	r.mu.RLock()
	s.entries = make([]snapEntry, 0, len(r.metrics))
	for key, m := range r.metrics {
		e := snapEntry{name: m.name, labels: m.labels, help: m.help, kind: m.kind}
		switch m.kind {
		case kindCounter:
			e.intVal = m.readInt()
			s.Counters[key] = e.intVal
		case kindGauge:
			e.floatVal = m.readFloat()
			s.Gauges[key] = e.floatVal
		case kindHistogram:
			e.hist = m.hist.Buckets()
			s.Histograms[key] = e.hist
			if m.ex != nil {
				e.ex = m.ex.p.Load()
			}
		}
		s.entries = append(s.entries, e)
	}
	r.mu.RUnlock()
	sort.Slice(s.entries, func(i, j int) bool {
		if s.entries[i].name != s.entries[j].name {
			return s.entries[i].name < s.entries[j].name
		}
		return s.entries[i].labels < s.entries[j].labels
	})
	return s
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4) from one Snapshot, so every sample in the
// scrape was read at the same instant.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.Snapshot().WritePrometheus(w)
}

// WritePrometheus renders the snapshot: HELP/TYPE headers once per
// family, counters suffixed _total, histograms as cumulative _bucket
// series with le labels plus _sum and _count, families sorted by name
// and label sets within a family sorted lexically. A histogram with a
// captured exemplar renders it OpenMetrics-style after its +Inf bucket.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	prevFamily := ""
	for _, e := range s.entries {
		switch e.kind {
		case kindCounter:
			name := e.name + "_total"
			if name != prevFamily {
				writeHeader(&b, name, e.help, "counter")
				prevFamily = name
			}
			fmt.Fprintf(&b, "%s %d\n", name+braced(e.labels), e.intVal)
		case kindGauge:
			if e.name != prevFamily {
				writeHeader(&b, e.name, e.help, "gauge")
				prevFamily = e.name
			}
			fmt.Fprintf(&b, "%s %s\n", e.name+braced(e.labels), formatSample(e.floatVal))
		case kindHistogram:
			if e.name != prevFamily {
				writeHeader(&b, e.name, e.help, "histogram")
				prevFamily = e.name
			}
			bk := e.hist
			for i, bound := range bk.Bounds {
				fmt.Fprintf(&b, "%s_bucket{%sle=%q} %d\n", e.name, labelPrefix(e.labels), formatSample(bound), bk.Cumulative[i])
			}
			fmt.Fprintf(&b, "%s_bucket{%sle=\"+Inf\"} %d", e.name, labelPrefix(e.labels), bk.Count)
			if e.ex != nil {
				fmt.Fprintf(&b, " # {trace_id=\"%016x\"} %s", e.ex.traceID, formatSample(e.ex.value))
			}
			b.WriteByte('\n')
			fmt.Fprintf(&b, "%s_sum%s %s\n", e.name, braced(e.labels), formatSample(bk.Sum))
			fmt.Fprintf(&b, "%s_count%s %d\n", e.name, braced(e.labels), bk.Count)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// braced wraps non-empty label text in braces for a sample name.
func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// labelPrefix renders labels for merging with a bucket's le label.
func labelPrefix(labels string) string {
	if labels == "" {
		return ""
	}
	return labels + ","
}

// writeHeader emits the # HELP / # TYPE pair with help-text escaping per
// the exposition format (backslash and newline).
func writeHeader(b *strings.Builder, name, help, typ string) {
	if help != "" {
		fmt.Fprintf(b, "# HELP %s %s\n", name, escapeHelp(help))
	}
	fmt.Fprintf(b, "# TYPE %s %s\n", name, typ)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatSample renders a float64 the way Prometheus clients expect:
// shortest round-trip decimal, +Inf/-Inf/NaN spelled out.
func formatSample(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
