package spanner

import (
	"math"
	"slices"

	"repro/internal/graph"
)

// Incremental maintains a stretch-3 cluster spanner of a mutating graph
// under edge inserts and deletes — the dynamic-workload counterpart of
// BaswanaSen (k = 2). The construction is deliberately a *pure function
// of the current edge set* (plus the fixed seed), which is what makes
// incremental maintenance equal to rebuilding from scratch, edge for
// edge — the property the internal/check differential gate enforces
// after every update batch.
//
// Construction. Every vertex hashes (seed, v) once; vertices whose hash
// falls below the n^{-1/2} quantile are cluster centers — a
// graph-independent coin, so updates never re-flip it. A non-center
// joins the cluster of its smallest-id center neighbor (its star edge),
// or stays unclustered when it has none. Each vertex v then *wants* a
// deterministic local edge set W(v):
//
//   - unclustered v wants every incident edge;
//   - clustered non-center v wants its star edge {v, center};
//   - every clustered v wants one bridge edge to each adjacent foreign
//     cluster — the edge to the smallest-id neighbor in that cluster.
//
// H is exactly the union of the W(v): an edge survives while at least
// one endpoint wants it. Every base edge {u,v} has a detour of length
// ≤ 3 in H — same cluster: u–c–v over two star edges; different
// clusters: v–w–c(u)–w' bridge+star; an unclustered endpoint keeps the
// edge outright — so H is a 3-spanner, certified by Verify in the test
// suite and by internal/check online.
//
// Locality. Toggling {u,v} changes only N(u) and N(v), so only
// cluster(u) and cluster(v) can change; W(z) of any other vertex z
// depends on N(z) (unchanged) and its neighbors' cluster values, so it
// changes only when z neighbors an endpoint whose cluster changed. One
// update therefore recomputes W over {u, v} ∪ N(u) ∪ N(v) at worst —
// the Elkin–Neiman-style local-rule argument.
//
// Storage. H is kept as a second DynGraph beside G, so the spanner's
// sorted adjacency is always at hand: Edges is a walk, Snapshot a
// linear copy. There is no refcount table — an edge {x,y} whose want
// status may have moved is re-decided from the two sorted sets W(x) and
// W(y) directly, entering H when one of them holds it and leaving when
// neither does. Each update reports the net change to H as a Delta,
// which is what lets the serving layer refresh from the edges that
// moved instead of re-diffing whole spanners.
//
// Incremental does no internal locking; callers serialize updates
// (oracle.Dynamic holds its update lock across Insert/Delete).
type Incremental struct {
	dg   *graph.DynGraph // the live base graph G
	h    *graph.DynGraph // the maintained spanner H = ∪ W(v)
	seed uint64
	n    int

	isCenter []bool
	cluster  []int32   // center id, or -1 while unclustered
	want     [][]int32 // W(v) as the sorted far endpoints of v's wanted edges

	// seen stamps cluster ids already bridged while wantOf scans one
	// vertex; bumping stamp clears it in O(1).
	seen  []uint32
	stamp uint32
}

// Delta is the net change one update made to the maintained spanner:
// the edges that entered H and the edges that left it, each in
// canonical form (U < V, sorted lexicographically).
type Delta struct {
	Added, Removed []graph.Edge
}

// Empty reports whether the update left H unchanged.
func (d Delta) Empty() bool { return len(d.Added) == 0 && len(d.Removed) == 0 }

// IncrementalOptions configures NewIncremental.
type IncrementalOptions struct {
	// Seed keys the center hash. Two Incrementals with equal seeds over
	// equal edge sets hold identical spanners regardless of history.
	Seed uint64
}

// NewIncremental builds the maintained spanner over a copy of base.
func NewIncremental(base *graph.Graph, opts IncrementalOptions) *Incremental {
	n := base.N()
	inc := &Incremental{
		dg:       graph.NewDynGraph(base),
		seed:     opts.Seed,
		n:        n,
		isCenter: make([]bool, n),
		cluster:  make([]int32, n),
		want:     make([][]int32, n),
		seen:     make([]uint32, n),
	}
	// Center coin: hash below the n^{-1/2} quantile of the uint64 range.
	// Graph-independent by design — edge churn never moves a center.
	thr := ^uint64(0)
	if n > 1 {
		thr = uint64(float64(thr) / math.Sqrt(float64(n)))
	}
	for v := int32(0); v < int32(n); v++ {
		inc.isCenter[v] = centerHash(inc.seed, v) < thr
	}
	inc.h = graph.NewDynGraph(graph.NewBuilder(n).MustBuild())
	inc.recompute()
	return inc
}

// centerHash is a splitmix64-style avalanche of (seed, v): a fixed,
// graph-independent coin per vertex.
func centerHash(seed uint64, v int32) uint64 {
	x := seed + 0x9e3779b97f4a7c15*uint64(v+1)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Graph returns the live mutable graph the spanner tracks. Callers must
// mutate it only through Insert/Delete, never directly.
func (inc *Incremental) Graph() *graph.DynGraph { return inc.dg }

// H returns the live maintained spanner. It is read-only to callers and
// changes under every Insert/Delete whose Delta is non-empty.
func (inc *Incremental) H() *graph.DynGraph { return inc.h }

// Seq returns the applied-update counter (delegates to the DynGraph).
func (inc *Incremental) Seq() uint64 { return inc.dg.Seq() }

// Rebuilds always returns 0: every update is repaired locally and no
// update ever recomputes the spanner. It stays for callers that still
// report the count.
func (inc *Incremental) Rebuilds() uint64 { return 0 }

// HM returns the current spanner edge count.
func (inc *Incremental) HM() int { return inc.h.M() }

// clusterOf recomputes v's cluster from its current neighborhood: v
// itself when v is a center, else the smallest-id center neighbor, else
// -1.
func (inc *Incremental) clusterOf(v int32) int32 {
	if inc.isCenter[v] {
		return v
	}
	for _, w := range inc.dg.Neighbors(v) { // sorted: first center is min id
		if inc.isCenter[w] {
			return w
		}
	}
	return -1
}

// wantOf computes W(v) fresh from the current graph and cluster values,
// as the sorted far endpoints of the wanted edges.
func (inc *Incremental) wantOf(v int32) []int32 {
	nbrs := inc.dg.Neighbors(v)
	cv := inc.cluster[v]
	if cv < 0 {
		return append([]int32(nil), nbrs...)
	}
	inc.stamp++
	if inc.stamp == 0 { // wrapped: clear the stale stamps once
		clear(inc.seen)
		inc.stamp = 1
	}
	var out []int32
	for _, w := range nbrs { // sorted ⇒ first hit per cluster is min id
		if w == cv && !inc.isCenter[v] {
			out = append(out, w) // the star edge
			continue
		}
		cw := inc.cluster[w]
		if cw < 0 || cw == cv || inc.seen[cw] == inc.stamp {
			continue
		}
		inc.seen[cw] = inc.stamp
		out = append(out, w)
	}
	return out
}

// wants reports whether W(v) holds the edge {v, w}.
func (inc *Incremental) wants(v, w int32) bool {
	_, ok := slices.BinarySearch(inc.want[v], w)
	return ok
}

// Insert adds the edge {u, v} to the live graph and maintains the
// spanner. It reports whether the graph changed and the net change to
// the spanner (empty for no-ops and errors).
func (inc *Incremental) Insert(u, v int32) (applied bool, delta Delta, err error) {
	return inc.update(u, v, true)
}

// Delete removes the edge {u, v} from the live graph and maintains the
// spanner. It reports whether the graph changed and the net change to
// the spanner (empty for no-ops and errors).
func (inc *Incremental) Delete(u, v int32) (applied bool, delta Delta, err error) {
	return inc.update(u, v, false)
}

func (inc *Incremental) update(u, v int32, add bool) (applied bool, delta Delta, err error) {
	if add {
		applied, err = inc.dg.Insert(u, v)
	} else {
		applied, err = inc.dg.Delete(u, v)
	}
	if err != nil || !applied {
		return applied, Delta{}, err
	}

	// Local maintenance: only the endpoints' clusters can move; their
	// neighbors re-derive W only when the adjacent cluster value changed.
	affected := []int32{u, v}
	for _, x := range [2]int32{u, v} {
		nc := inc.clusterOf(x)
		if nc == inc.cluster[x] {
			continue
		}
		inc.cluster[x] = nc
		affected = append(affected, inc.dg.Neighbors(x)...)
	}
	slices.Sort(affected)
	return true, inc.reapply(slices.Compact(affected)), nil
}

// recompute derives every cluster and every W(v) from scratch and
// brings H in line — the construction, run once by NewIncremental.
func (inc *Incremental) recompute() {
	all := make([]int32, inc.n)
	for v := range all {
		all[v] = int32(v)
		inc.cluster[v] = inc.clusterOf(int32(v))
	}
	inc.reapply(all)
}

// reapply re-derives W(z) for each distinct vertex z in zs, then
// re-decides every edge whose want status moved — those in the
// symmetric difference of some old and new W(z) — against the final
// want sets, so H ends as exactly ∪ W(v) and the delta is net.
func (inc *Incremental) reapply(zs []int32) Delta {
	var moved []graph.Edge
	for _, z := range zs {
		old, nw := inc.want[z], inc.wantOf(z)
		i, j := 0, 0
		for i < len(old) || j < len(nw) {
			switch {
			case j == len(nw) || (i < len(old) && old[i] < nw[j]):
				moved = append(moved, graph.Edge{U: z, V: old[i]}.Normalize())
				i++
			case i == len(old) || nw[j] < old[i]:
				moved = append(moved, graph.Edge{U: z, V: nw[j]}.Normalize())
				j++
			default:
				i++
				j++
			}
		}
		inc.want[z] = nw
	}
	var d Delta
	for _, e := range moved {
		if inc.wants(e.U, e.V) || inc.wants(e.V, e.U) {
			if ok, _ := inc.h.Insert(e.U, e.V); ok {
				d.Added = append(d.Added, e)
			}
		} else if ok, _ := inc.h.Delete(e.U, e.V); ok {
			d.Removed = append(d.Removed, e)
		}
	}
	slices.SortFunc(d.Added, graph.CompareEdges)
	slices.SortFunc(d.Removed, graph.CompareEdges)
	return d
}

// Edges returns the current spanner edge set, each edge once with U < V,
// sorted lexicographically — the canonical form compared byte-for-byte
// by the incremental-vs-rebuilt differential. It walks H's sorted lists;
// nothing is sorted.
func (inc *Incremental) Edges() []graph.Edge { return inc.h.Edges() }

// Spanner freezes the maintained structure into the immutable Spanner
// form over snapshots of the live graph and spanner. The certified
// stretch is 3 by the per-edge detour argument in the type comment.
func (inc *Incremental) Spanner() *Spanner {
	h := inc.h.Snapshot()
	return &Spanner{Base: inc.dg.Snapshot(), H: h, Primary: h, Algorithm: "incremental-cluster3"}
}

// IncrementalAlpha is the distance stretch the incremental construction
// certifies: every base edge has a detour of ≤ 3 edges in H.
const IncrementalAlpha = 3
