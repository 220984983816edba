package oracle

import (
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
)

// AnswerBatch answers a batch of distance queries on the oracle's worker
// pool and returns one Answer per query, index-aligned with qs. Invalid
// queries (vertices out of range) yield an Answer with Dist and Bound set
// to graph.Unreachable rather than an error, so one bad query does not
// poison a batch.
//
// Answers are identical to answering the queries sequentially: every
// backend's resolution is deterministic (and the landmark backend's cache
// stores only exact values), so scheduling cannot change an answer. A
// backend may serve the whole batch through a bulk arm when that is
// cheaper — the landmark backend's multi-source BFS sweep for large
// unbounded batches, the exact backend's parallel table fill — and the
// answers are the same either way.
func (o *Oracle) AnswerBatch(qs []Query) []Answer {
	return o.AnswerBatchTrace(qs, nil)
}

// AnswerBatchTrace is AnswerBatch with an optional request trace: the
// answers are identical (the trace influences nothing the differential
// harness can see), but the trace's path mask accumulates every
// resolution path the batch took and an "oracle" hop records which arm
// (backend bulk vs per-query pool) served it. A nil trace costs only the
// per-batch nil checks — path bits are folded into a local word per
// worker either way, never per-query atomics.
func (o *Oracle) AnswerBatchTrace(qs []Query, tr *obs.ReqTrace) []Answer {
	t0 := time.Now()
	out := make([]Answer, len(qs))
	if len(qs) == 0 {
		return out
	}
	arm := "perquery"
	var mask uint8
	if m, handled := o.backend.AnswerBatch(qs, out); handled {
		arm = "bulk"
		mask = m
		o.accountBatch(qs, out, t0)
	} else {
		mask = o.answerMany(qs, out)
	}
	if tr != nil {
		tr.OrPath(mask)
		tr.Hop("oracle", t0, fmt.Sprintf("n=%d arm=%s path=%s", len(qs), arm, obs.PathString(mask)))
	}
	return out
}

// accountBatch settles a backend-handled batch: the backend filled every
// valid non-self out slot (and counted them in its own path counters);
// this serial pass mirrors the per-query path's oracle-level semantics.
// Invalid queries get the sentinel Answer and no accounting, self queries
// count as queries but take no resolution path, backend-served queries
// count and feed the deterministic stretch sampler in batch order.
// Latency is accounted as the batch's wall time amortized uniformly over
// the accounted queries.
func (o *Oracle) accountBatch(qs []Query, out []Answer, t0 time.Time) {
	n := int32(o.h.N())
	perQuery := time.Since(t0).Seconds() / float64(len(qs))
	for qi, q := range qs {
		switch {
		case q.U < 0 || q.V < 0 || q.U >= n || q.V >= n:
			out[qi] = Answer{U: q.U, V: q.V, Dist: graph.Unreachable, Bound: graph.Unreachable}
		case q.U == q.V:
			out[qi] = Answer{U: q.U, V: q.V, Exact: true}
			o.queries.Add(1)
			o.latency.Observe(perQuery)
		default:
			seq := o.queries.Add(1)
			if out[qi].Exact {
				o.maybeSampleStretch(seq, q.U, q.V, out[qi].Dist)
			}
			o.latency.Observe(perQuery)
		}
	}
}

// answerMany runs the per-query arm on the worker pool and returns the
// OR of the resolution-path bits taken. Each worker folds its bits into
// its own mask slot, once per chunk; the slots are ORed after the pool
// returns, so no per-query atomics are needed.
func (o *Oracle) answerMany(qs []Query, out []Answer) uint8 {
	masks := make([]uint8, graph.WorkersFor(o.workers, len(qs)))
	graph.ParallelRangeWorkers(len(qs), o.workers, func(w, lo, hi int) {
		var mask uint8
		for j := lo; j < hi; j++ {
			var p uint8
			out[j], p = o.answerTimed(qs[j])
			mask |= p
		}
		masks[w] |= mask
	})
	var mask uint8
	for _, m := range masks {
		mask |= m
	}
	return mask
}

// answerTimed is one batch element: answer with latency accounting,
// swallowing the out-of-range error into the Answer sentinel. The second
// return is the resolution-path bit taken.
func (o *Oracle) answerTimed(q Query) (Answer, uint8) {
	t0 := time.Now()
	a, path, err := o.answer(q.U, q.V)
	if err == nil {
		o.latency.Observe(time.Since(t0).Seconds())
	}
	return a, path
}
