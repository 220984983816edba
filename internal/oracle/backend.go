package oracle

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/spanner"
)

// Backend names accepted by Options.Backend (and the CLIs'
// -oracle-backend flag). The empty string means BackendLandmarkBiBFS —
// the zero Options value keeps the original engine, so committed bench
// baselines and differential fingerprints are unaffected by the backend
// layer's existence.
const (
	// BackendLandmarkBiBFS is the original three-tier engine: sharded LRU
	// result cache, landmark upper bounds, bounded bidirectional BFS.
	// Space O(k·n + cache); query O(k) on a bound, O(d·deg) on an exact
	// search. Stretch bound 1: every answer is exact on H.
	BackendLandmarkBiBFS = "landmark-bibfs"
	// BackendExactCached precomputes the full all-pairs distance matrix
	// (a triangular n(n−1)/2 table) at build time. Space O(n²), query
	// O(1), stretch bound 1. Only sensible for small graphs — the tuner
	// gates it on Options.MemoryBudget.
	BackendExactCached = "exact-cached"
	// BackendSparseHub is the Thorup–Zwick-style two-level design from
	// Agarwal–Godfrey–Har-Peled's sparse-graph line of work: a hub set A
	// of size k with full BFS rows, plus per-vertex bunches
	// B(u) = {w : d(u,w) < d(u,A)} holding exact distances. Space
	// O(k·n + Σ|B(u)|) with E|B(u)| ≈ n/k under uniform hub sampling
	// (k ≈ √n balances the two terms; Options.SparseHubs is the knob).
	// Query is two binary searches plus an O(k) hub scan; stretch bound 3.
	BackendSparseHub = "sparse-hub"
	// BackendAuto asks New to benchmark every candidate backend on a
	// sampled query mix over the loaded graph and serve the fastest one
	// that fits Options.MemoryBudget (see tuner.go for the decision
	// rule). The choice is exposed via Oracle.Backend and TunerReport.
	BackendAuto = "auto"
)

// BackendNames returns the concrete backend names (excluding
// BackendAuto), in tuner preference order for ties.
func BackendNames() []string {
	return []string{BackendLandmarkBiBFS, BackendExactCached, BackendSparseHub}
}

// Backend is one distance-resolution engine behind an Oracle. The Oracle
// owns all shared serving concerns — query validation, self-queries,
// query/latency accounting, the realized-stretch sampler, routing — and
// delegates only the distance resolution of valid u ≠ v pairs here.
//
// The interface is sealed (attachMetrics is unexported): backends are
// constructed by New/NewFromGraphs via Options.Backend, so every
// implementation is swept by the internal/check differential harness
// against the exact distance matrix and its declared stretch bound.
type Backend interface {
	// Name returns the backend's registered name (one of BackendNames).
	Name() string
	// StretchBound is the declared worst-case multiplicative stretch of
	// Dist against the exact spanner distance: every finite answer
	// satisfies d_H(u,v) ≤ Dist ≤ StretchBound·d_H(u,v), and Unreachable
	// is answered if and only if the pair is disconnected on H.
	// internal/check enforces the declared bound against the exact
	// matrix for every generator family.
	StretchBound() int
	// MemoryBytes estimates the backend's resident precomputed state
	// (tables, bunches, cache slots) — the figure the startup tuner
	// gates candidates on.
	MemoryBytes() int64
	// Dist resolves one query with both endpoints validated in range and
	// u ≠ v. It returns the filled Answer and the obs.Path* bit of the
	// resolution path taken; implementations do their own per-path
	// counting but no query/latency accounting.
	Dist(u, v int32) (Answer, uint8)
	// AnswerBatch offers the whole batch to the backend's bulk arm. When
	// it returns handled=true the backend has filled out[i] for every
	// valid non-self query (other slots are the Oracle's to fill) and
	// the mask is the OR of path bits taken; handled=false punts the
	// batch to the Oracle's per-query worker pool, which calls Dist.
	AnswerBatch(qs []Query, out []Answer) (mask uint8, handled bool)
	// Stats snapshots the backend's own counters (resolution paths,
	// cache hits) alongside its declared contract. The map keys are
	// stable short names ("path_bibfs", "cache_hits", ...).
	Stats() BackendStats

	// attachMetrics registers the backend's counters into the oracle's
	// registry, labeled backend="<name>". Called exactly once, on the
	// backend actually serving — tuner candidates that lose are never
	// attached, so candidate probing cannot collide on metric names.
	attachMetrics(reg *obs.Registry)

	// refresh invalidates or patches the backend's precomputed state
	// after the serving spanner changed from its current graph to h —
	// the dynamic-graph path, which repairs backends in place instead of
	// tearing down and rebuilding the oracle (counters, caches slots,
	// pools, and metric registrations all survive). d is the net spanner
	// change that produced h (spanner.Incremental's Delta), letting
	// backends patch from the edges that moved (the exact table relaxes
	// each added edge and rewrites only the rows a removed edge was
	// tight for). The contract, enforced by internal/check's incremental
	// differential: after refresh, every answer must equal the answer of
	// a backend freshly built on h with the same Options. Callers
	// serialize refresh against Dist/AnswerBatch (oracle.Dynamic holds
	// its update lock).
	refresh(h *graph.Graph, d spanner.Delta)
}

// BackendStats is a point-in-time snapshot of one backend's counters and
// declared contract, embedded in Stats so mixed-backend fleets report
// per-backend numbers instead of blending them.
type BackendStats struct {
	// Name is the backend's registered name.
	Name string
	// StretchBound is the declared worst-case stretch.
	StretchBound int
	// MemoryBytes estimates the backend's precomputed state.
	MemoryBytes int64
	// Counters holds the backend's own counters under stable short keys.
	Counters map[string]int64
}

// backendKey returns the registry snapshot key of a backend-labeled
// metric — the obs registry keys labeled series as `name{label="value"}`.
func backendKey(name, backend string) string {
	return name + `{backend="` + backend + `"}`
}

// buildBackend constructs the named backend over the spanner h. The
// Options carry every knob a backend reads (landmark count, cache size,
// SparseHubs, Seed, Workers); name must be a concrete backend
// name — BackendAuto is resolved by the tuner before this is called.
func buildBackend(name string, h *graph.Graph, opts Options, workers int, trace *obs.Span) (Backend, error) {
	switch name {
	case "", BackendLandmarkBiBFS:
		return newLandmarkBackend(h, opts, workers, trace), nil
	case BackendExactCached:
		return newExactBackend(h, workers, trace), nil
	case BackendSparseHub:
		return newSparseBackend(h, opts, workers, trace), nil
	default:
		return nil, fmt.Errorf("oracle: unknown backend %q (have %v, or %q)",
			name, BackendNames(), BackendAuto)
	}
}
