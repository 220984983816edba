package check

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/rng"
	"repro/internal/spanner"
)

// checkDynamic is the incremental-maintenance differential: drive seeded
// batches of edge updates through the incremental spanner and through a
// full oracle.Dynamic engine per backend, and after EVERY batch assert
// that the incrementally maintained state is indistinguishable from a
// from-scratch build on the current edge set.
//
// Three layers are compared per batch:
//
//   - Spanner: the maintained edge set must equal (edge for edge, not
//     just by hash) a fresh spanner.NewIncremental on the current graph
//     with the same seed.
//   - Engine: Snapshot(verify) must report Consistent, the maintained
//     spanner must satisfy the spanner invariants, and Seq must count
//     exactly the applied updates.
//   - Backend: sampled queries through the live engine must equal the
//     answers of an oracle freshly built on the same (base, spanner)
//     pair, and must satisfy the backend answer contract against an
//     exact all-pairs reference on the current spanner.
func checkDynamic(rep *Report, family string, g *graph.Graph, opts Options, r *rng.RNG) {
	n := g.N()
	if n < 2 {
		return
	}
	batches := pick(opts.Quick, 3, 5)
	batchSize := pick(opts.Quick, 6, 12)
	sopt := spanner.IncrementalOptions{Seed: r.Uint64()}
	inc := spanner.NewIncremental(g, sopt)

	oSeed := r.Uint64() | 1
	var engines []*dynEngine
	for _, name := range []string{oracle.BackendLandmarkBiBFS, oracle.BackendExactCached, oracle.BackendSparseHub} {
		if opts.Backend != "" && opts.Backend != name {
			continue
		}
		ck := &checker{rep: rep, family: family, check: "dynamic-engine/" + name, seed: opts.Seed}
		d, err := oracle.NewDynamic(g, oracle.DynamicOptions{
			Spanner: sopt,
			Oracle:  oracle.Options{Backend: name, Seed: oSeed, CacheSize: 1 << 10, Workers: 1, SampleEvery: -1},
		})
		if !ck.assert(err == nil, "NewDynamic: %v", err) {
			continue
		}
		engines = append(engines, &dynEngine{name: name, d: d})
	}

	// cur mirrors the live edge set so every generated update is a real
	// mutation (flip: present -> delete, absent -> insert).
	cur := make(map[graph.Edge]bool, g.M())
	for _, e := range g.Edges() {
		cur[e] = true
	}
	applied := uint64(0)

	for b := 0; b < batches; b++ {
		ck := &checker{rep: rep, family: family,
			check: fmt.Sprintf("dynamic-differential/batch=%d", b), seed: opts.Seed}
		for j := 0; j < batchSize; j++ {
			u, v := int32(r.Intn(n)), int32(r.Intn(n))
			if u == v {
				continue // skipped, not redrawn: keeps the stream aligned
			}
			e := graph.Edge{U: u, V: v}
			if e.U > e.V {
				e.U, e.V = e.V, e.U
			}
			add := !cur[e]
			ok, _, err := applyInc(inc, u, v, add)
			if !ck.assert(err == nil, "update (%d,%d,add=%v): %v", u, v, add, err) {
				return
			}
			if !ck.assert(ok, "update (%d,%d,add=%v) was a surprise no-op", u, v, add) {
				return
			}
			for _, en := range engines {
				res, err := en.d.Update(u, v, add)
				if !ck.assert(err == nil && res.Applied,
					"engine %s: update (%d,%d,add=%v) = (%+v, %v)", en.name, u, v, add, res, err) {
					return
				}
			}
			cur[e] = add
			if !add {
				delete(cur, e)
			}
			applied++
		}

		// Spanner layer: maintained == rebuilt from scratch, edge for edge.
		snap := inc.Graph().Snapshot()
		fresh := spanner.NewIncremental(snap, sopt)
		ck.assert(edgesEqual(inc.Edges(), fresh.Edges()),
			"maintained spanner (%d edges) differs from a from-scratch build (%d edges) after %d updates",
			inc.HM(), fresh.HM(), applied)
		ck.assert(inc.Seq() == applied, "Seq=%d, applied %d updates", inc.Seq(), applied)

		s := inc.Spanner()
		ck.assert(SpannerInvariants(s.Base, s.H) == nil, "maintained spanner violates invariants after %d updates", applied)

		// Engine + backend layers.
		distH := AllPairs(s.H)
		qs := sampleQueries(n, pick(opts.Quick, 40, 90), r.Split())
		for _, en := range engines {
			eck := &checker{rep: rep, family: family,
				check: fmt.Sprintf("dynamic-backend/%s/batch=%d", en.name, b), seed: opts.Seed}
			si := en.d.Snapshot(true)
			eck.assert(si.Verified && si.Consistent,
				"verify snapshot after %d updates: %+v", applied, si)
			eck.assert(si.Seq == applied, "engine Seq=%d, applied %d updates", si.Seq, applied)
			eck.assert(si.HM == fresh.HM(), "engine HM=%d, fresh build has %d", si.HM, fresh.HM())

			freshO, err := oracle.NewFromGraphs(s.Base, s.H, spanner.IncrementalAlpha,
				oracle.Options{Backend: en.name, Seed: oSeed, CacheSize: -1, Workers: 1, SampleEvery: -1})
			if !eck.assert(err == nil, "fresh oracle: %v", err) {
				continue
			}
			sb := freshO.BackendStats().StretchBound
			for _, q := range qs {
				live, err1 := en.d.Dist(q.U, q.V)
				want, err2 := freshO.Dist(q.U, q.V)
				if !eck.assert(err1 == nil && err2 == nil, "Dist(%d,%d): %v / %v", q.U, q.V, err1, err2) {
					continue
				}
				if !eck.assert(live == want,
					"(%d,%d): refreshed backend answers %+v, fresh build answers %+v", q.U, q.V, live, want) {
					break
				}
				checkBackendAnswer(eck, live, distH, sb)
			}
		}
	}

	// No-op and invalid updates must change nothing.
	ck := &checker{rep: rep, family: family, check: "dynamic-noop", seed: opts.Seed}
	liveEdges := inc.Graph().Snapshot().Edges()
	for _, en := range engines {
		before := en.d.Snapshot(false)
		if len(liveEdges) > 0 {
			e := liveEdges[0]
			res, err := en.d.Update(e.U, e.V, true) // already present
			ck.assert(err == nil && !res.Applied, "engine %s: re-insert = (%+v, %v)", en.name, res, err)
		}
		if _, err := en.d.Update(0, 0, true); !ck.assert(err != nil, "engine %s accepted a self-edge", en.name) {
			continue
		}
		_, err := en.d.Update(0, int32(n), true)
		ck.assert(err != nil, "engine %s accepted an out-of-range endpoint", en.name)
		after := en.d.Snapshot(false)
		ck.assert(before == after, "engine %s: no-op updates moved the snapshot %+v -> %+v", en.name, before, after)
	}
}

// dynEngine pairs a live engine with its backend name for reporting.
type dynEngine struct {
	name string
	d    *oracle.Dynamic
}

// applyInc dispatches one update to a maintained spanner.
func applyInc(inc *spanner.Incremental, u, v int32, add bool) (bool, spanner.Delta, error) {
	if add {
		return inc.Insert(u, v)
	}
	return inc.Delete(u, v)
}

// edgesEqual compares two canonical (sorted, U < V) edge lists.
func edgesEqual(a, b []graph.Edge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
