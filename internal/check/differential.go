package check

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/spanner"
)

// workerCounts is the worker-count sweep every parallel kernel is checked
// at: inline, minimal parallelism, and oversubscribed (more workers than
// this container has cores).
var workerCounts = []int{1, 2, 8}

// alpha is the stretch bound the verification kernels are run with. Its
// exact value is immaterial to the differential (the reference uses the
// same one); 3 matches the paper's headline construction.
const alpha = 3

// Options parameterizes a differential run. The zero value is a full
// sweep of every family at seed 0 (which Run remaps to a fixed nonzero
// default so derived streams are never the degenerate all-zero state).
type Options struct {
	// Seed keys every random choice of the run. A divergence found at
	// seed S in family F reproduces with exactly those two values.
	Seed uint64
	// Quick shrinks graph sizes and trace lengths for CI gating.
	Quick bool
	// Families restricts the sweep to the named families; empty means all.
	Families []string
	// Backend restricts the backend sweep to one oracle backend (a
	// Backend* name from the oracle package) and forces it into the
	// router differential. Empty sweeps every backend. The
	// landmark-specific differentials (checkOracle's per-path contract,
	// the cache traces) run only when the landmark backend is in scope.
	Backend string
	// Logf, when non-nil, receives per-family progress lines.
	Logf func(format string, args ...any)
}

// DefaultSeed is the run seed used when Options.Seed is zero.
const DefaultSeed = 0xd15c0c0de

// landmarkInScope reports whether the landmark backend's own
// differentials should run under this configuration.
func landmarkInScope(opts Options) bool {
	return opts.Backend == "" || opts.Backend == oracle.BackendLandmarkBiBFS
}

// Run executes the differential sweep and returns its report. It only
// returns a non-nil error for configuration problems (unknown family
// names); divergences are data, reported in Report.Divergences.
func Run(opts Options) (Report, error) {
	fams, err := LookupFamilies(opts.Families)
	if err != nil {
		return Report{}, err
	}
	if opts.Seed == 0 {
		opts.Seed = DefaultSeed
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	rep := Report{}
	for _, f := range fams {
		before := len(rep.Divergences)
		runFamily(&rep, f, opts)
		rep.Families++
		logf("family %-18s checks=%d divergences=%d", f.Name, rep.Checks, len(rep.Divergences)-before)
	}
	if landmarkInScope(opts) {
		runCacheTrace(&rep, opts)
		logf("cache traces          checks=%d divergences=%d", rep.Checks, len(rep.Divergences))
	}
	runRouterDifferential(&rep, opts)
	logf("router fleet          checks=%d divergences=%d", rep.Checks, len(rep.Divergences))
	return rep, nil
}

// checker accumulates assertions for one (family, check) context.
type checker struct {
	rep    *Report
	family string
	check  string
	seed   uint64
}

func (c *checker) assert(ok bool, format string, args ...any) bool {
	c.rep.Checks++
	if !ok {
		c.rep.Divergences = append(c.rep.Divergences, Divergence{
			Family: c.family,
			Check:  c.check,
			Seed:   c.seed,
			Detail: fmt.Sprintf(format, args...),
		})
	}
	return ok
}

// variant is one (spanner, base) pair a family is checked under.
type variant struct {
	name string
	h    *graph.Graph
}

// runFamily drives every differential for one generator family: build the
// graph, derive spanner variants, and check the oracle, the verification
// kernels, and the congestion kernels against the exact references.
func runFamily(rep *Report, f Family, opts Options) {
	seed := familySeed(opts.Seed, f.Name)
	r := rng.New(seed)
	g := f.Build(r.Split(), opts.Quick)

	ck := &checker{rep: rep, family: f.Name, check: "graph-invariants", seed: opts.Seed}
	if err := GraphInvariants(g); !ck.assert(err == nil, "%v", err) {
		return // structurally broken graph poisons everything downstream
	}

	distG := AllPairs(g)
	variants := []variant{{name: "identity", h: g}}
	if f.Spanner != nil {
		variants = append(variants, variant{name: "paper", h: f.Spanner(r.Split(), opts.Quick)})
	}
	if h := forestSpanner(g, r.Split()); h != nil {
		variants = append(variants, variant{name: "forest", h: h})
	}
	if h := randomSubgraph(g, r.Split()); h != nil {
		variants = append(variants, variant{name: "random-sub", h: h})
	}

	for _, v := range variants {
		ck := &checker{rep: rep, family: f.Name, check: "spanner-invariants/" + v.name, seed: opts.Seed}
		if err := SpannerInvariants(g, v.h); !ck.assert(err == nil, "%v", err) {
			continue
		}
		if v.name == "identity" || v.name == "forest" {
			ck.check = "connectivity/" + v.name
			ck.assert(ConnectivityPreserved(g, v.h) == nil, "spanner disconnects the base graph")
		}
		distH := distG
		if v.h != g {
			distH = AllPairs(v.h)
		}
		if landmarkInScope(opts) {
			checkOracle(rep, f.Name, v, distH, opts, r.Split())
		}
		checkBackends(rep, f.Name, v, distH, opts, r.Split())
		checkVerifyKernels(rep, f.Name, v, g, distG, distH, opts, r.Split())
		checkCongestion(rep, f.Name, v, opts, r.Split())
	}

	checkBFSKernels(rep, f.Name, g, opts, r.Split())
	checkDynamic(rep, f.Name, g, opts, r.Split())
}

// checkBFSKernels is the multi-source kernel differential: the
// bit-parallel kernel, the scalar parallel kernel, and the naive
// per-source BFS must produce identical distance rows at every worker
// count (bit-parallel == scalar == naive). Sources are a stride sample
// wide enough to cross a 64-source word boundary plus a duplicate, so
// group packing and the duplicate-source path are both exercised.
func checkBFSKernels(rep *Report, family string, g *graph.Graph, opts Options, r *rng.RNG) {
	n := g.N()
	if n == 0 {
		return
	}
	count := 70 // crosses one bitGroup boundary
	if count > 2*n {
		count = 2 * n
	}
	srcs := make([]int32, 0, count+1)
	for i := 0; i < count; i++ {
		srcs = append(srcs, int32(r.Intn(n)))
	}
	srcs = append(srcs, srcs[0]) // duplicate source
	naive := make([][]int32, len(srcs))
	for i, s := range srcs {
		naive[i] = g.BFS(s)
	}
	for _, w := range workerCounts {
		ck := &checker{rep: rep, family: family,
			check: fmt.Sprintf("bfs-kernels/workers=%d", w), seed: opts.Seed}
		scalar := g.ParallelBFSFrom(srcs, w)
		bitp := g.BitParallelBFSFrom(srcs, w)
		for i := range srcs {
			if !ck.assert(int32sEqual(scalar.Row(i), naive[i]),
				"scalar kernel row %d (source %d) differs from naive BFS", i, srcs[i]) {
				break
			}
			if !ck.assert(int32sEqual(bitp.Row(i), naive[i]),
				"bit-parallel kernel row %d (source %d) differs from naive BFS", i, srcs[i]) {
				break
			}
		}
	}
}

func int32sEqual(a, b []int32) bool {
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

// forestSpanner returns a spanning forest of g plus a random ~30% of the
// remaining edges: always connectivity-preserving, usually much sparser
// than g. Returns nil for edgeless graphs (the identity variant covers
// those).
func forestSpanner(g *graph.Graph, r *rng.RNG) *graph.Graph {
	if g.M() == 0 {
		return nil
	}
	n := g.N()
	b := graph.NewBuilder(n)
	inTree := make([]bool, n)
	queue := make([]int32, 0, n)
	for root := int32(0); root < int32(n); root++ {
		if inTree[root] {
			continue
		}
		inTree[root] = true
		queue = append(queue[:0], root)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, w := range g.Neighbors(u) {
				if !inTree[w] {
					inTree[w] = true
					b.AddEdge(u, w)
					queue = append(queue, w)
				}
			}
		}
	}
	forest := b.MustBuild()
	for _, e := range g.Edges() {
		// Draw for every edge so the stream is independent of forest shape.
		keep := r.Bernoulli(0.3)
		if keep && !forest.HasEdge(e.U, e.V) {
			b.AddEdge(e.U, e.V)
		}
	}
	return b.MustBuild()
}

// randomSubgraph keeps each edge of g independently with probability 0.55
// — the variant that exercises disconnected pairs and the Unreachable
// sentinel end to end. Returns nil for edgeless graphs.
func randomSubgraph(g *graph.Graph, r *rng.RNG) *graph.Graph {
	if g.M() == 0 {
		return nil
	}
	keep := make([]bool, g.M())
	for i := range keep {
		keep[i] = r.Bernoulli(0.55)
	}
	i := 0
	return g.FilterEdges(func(graph.Edge) bool {
		k := keep[i]
		i++
		return k
	})
}

// sampleQueries draws the query set one oracle differential runs against:
// random ordered pairs (u == v included), plus the fixed corner pairs.
func sampleQueries(n, count int, r *rng.RNG) []oracle.Query {
	qs := make([]oracle.Query, 0, count+2)
	for i := 0; i < count; i++ {
		qs = append(qs, oracle.Query{U: int32(r.Intn(n)), V: int32(r.Intn(n))})
	}
	qs = append(qs, oracle.Query{U: 0, V: int32(n - 1)}, oracle.Query{U: 0, V: 0})
	return qs
}

// refBound recomputes the landmark upper bound min_l d(u,l) + d(l,v) from
// the exact distance table and the oracle's own landmark choice.
func refBound(distH *graph.TriDist, lms []int32, u, v int32) int32 {
	best := graph.Unreachable
	for _, l := range lms {
		du, dv := distH.At(l, u), distH.At(l, v)
		if du == graph.Unreachable || dv == graph.Unreachable {
			continue
		}
		if s := du + dv; best == graph.Unreachable || s < best {
			best = s
		}
	}
	return best
}

// checkAnswer asserts one oracle Answer against the exact reference: the
// landmark bound must match the reference bound, and the answer must be
// exact.
func checkAnswer(ck *checker, a oracle.Answer, distH *graph.TriDist, lms []int32) {
	u, v := a.U, a.V
	if u == v {
		ck.assert(a.Dist == 0 && a.Bound == 0 && a.Exact,
			"(%d,%d): self-query got dist=%d bound=%d exact=%v", u, v, a.Dist, a.Bound, a.Exact)
		return
	}
	ref := distH.At(u, v)
	bound := refBound(distH, lms, u, v)
	if !ck.assert(a.Bound == bound,
		"(%d,%d): bound=%d, reference landmark bound=%d", u, v, a.Bound, bound) {
		return
	}
	ck.assert(a.Exact && a.Dist == ref,
		"(%d,%d): dist=%d exact=%v, reference BFS says %d", u, v, a.Dist, a.Exact, ref)
}

// checkOracle runs the oracle differential for one spanner variant: every
// landmark count × cache configuration, two passes (cold then cache-warm),
// AnswerBatch at every worker count, and invalid queries.
func checkOracle(rep *Report, family string, v variant, distH *graph.TriDist, opts Options, r *rng.RNG) {
	n := v.h.N()
	qn := 150
	if !opts.Quick {
		qn = 400
	}
	qs := sampleQueries(n, qn, r)
	oSeed := r.Uint64() | 1 // nonzero: 0 would mean "inherit build seed"

	landmarkCounts := []int{1, 3, n}
	cacheSizes := []int{-1, 1 << 12, 3}
	for _, lc := range landmarkCounts {
		for _, cs := range cacheSizes {
			o, err := oracle.NewFromGraphs(v.h, v.h, alpha, oracle.Options{
				Landmarks: lc, Seed: oSeed, CacheSize: cs, Workers: 1, SampleEvery: -1,
			})
			ck := &checker{rep: rep, family: family,
				check: fmt.Sprintf("oracle-dist/%s/lm=%d/cache=%d", v.name, lc, cs), seed: opts.Seed}
			if !ck.assert(err == nil, "NewFromGraphs: %v", err) {
				continue
			}
			lms := o.Landmarks()
			want := lc
			if want > n {
				want = n
			}
			ck.assert(len(lms) == want, "asked for %d landmarks, got %d", want, len(lms))
			for pass := 0; pass < 2; pass++ {
				for _, q := range qs {
					a, err := o.Dist(q.U, q.V)
					if !ck.assert(err == nil, "Dist(%d,%d) pass %d: %v", q.U, q.V, pass, err) {
						continue
					}
					checkAnswer(ck, a, distH, lms)
				}
			}
		}
	}

	// AnswerBatch: identical answers at every worker count, invalid
	// queries answered with the Unreachable sentinel instead of poisoning
	// the batch.
	batch := append(append([]oracle.Query(nil), qs...),
		oracle.Query{U: -1, V: 0}, oracle.Query{U: 0, V: int32(n)})
	var first []oracle.Answer
	for _, w := range workerCounts {
		o, err := oracle.NewFromGraphs(v.h, v.h, alpha, oracle.Options{
			Landmarks: 3, Seed: oSeed, CacheSize: 1 << 12, Workers: w, SampleEvery: -1,
		})
		ck := &checker{rep: rep, family: family,
			check: fmt.Sprintf("oracle-batch/%s/workers=%d", v.name, w), seed: opts.Seed}
		if !ck.assert(err == nil, "NewFromGraphs: %v", err) {
			continue
		}
		lms := o.Landmarks()
		out := o.AnswerBatch(batch)
		if !ck.assert(len(out) == len(batch), "got %d answers for %d queries", len(out), len(batch)) {
			continue
		}
		for i, a := range out {
			q := batch[i]
			if q.U < 0 || q.V < 0 || int(q.U) >= n || int(q.V) >= n {
				ck.assert(a.Dist == graph.Unreachable && a.Bound == graph.Unreachable && !a.Exact,
					"invalid query (%d,%d): got dist=%d bound=%d exact=%v", q.U, q.V, a.Dist, a.Bound, a.Exact)
				continue
			}
			checkAnswer(ck, a, distH, lms)
		}
		if first == nil {
			first = out
			continue
		}
		for i := range out {
			if !ck.assert(out[i] == first[i],
				"answer %d differs between workers=%d and workers=%d: %+v vs %+v",
				i, w, workerCounts[0], out[i], first[i]) {
				break
			}
		}
	}
}

// checkVerifyKernels runs the stretch-verification differential: the
// optimized parallel kernels at every worker count versus the brute-force
// reports computed from the exact distance matrices. Agreement is exact
// (float bit equality), not approximate — the references reduce in the
// same order as the kernels.
func checkVerifyKernels(rep *Report, family string, v variant, g *graph.Graph, distG, distH *graph.TriDist, opts Options, r *rng.RNG) {
	edgeRef := EdgeStretch(g, distH, alpha)
	for _, w := range workerCounts {
		ck := &checker{rep: rep, family: family,
			check: fmt.Sprintf("verify-edge/%s/workers=%d", v.name, w), seed: opts.Seed}
		got := spanner.VerifyEdgeStretchOpts(g, v.h, alpha, spanner.VerifyOptions{Workers: w})
		ck.assert(got == edgeRef, "got %+v, reference %+v", got, edgeRef)
	}

	n := g.N()
	pairs := 80
	if !opts.Quick {
		pairs = 250
	}
	if total := n * (n - 1) / 2; pairs > total {
		pairs = total
	}
	pairSeed := r.Uint64()
	ps := rng.New(pairSeed).SamplePairs(n, pairs)
	pairRef := PairStretch(distG, distH, ps)
	for _, w := range workerCounts {
		ck := &checker{rep: rep, family: family,
			check: fmt.Sprintf("verify-pair/%s/workers=%d", v.name, w), seed: opts.Seed}
		got := spanner.VerifyPairStretchOpts(g, v.h, pairs, rng.New(pairSeed), spanner.VerifyOptions{Workers: w})
		ck.assert(got == pairRef, "got %+v, reference %+v", got, pairRef)
	}
}

// checkCongestion routes a within-component problem on the spanner and
// compares the parallel congestion-accounting kernels at every worker
// count against the map-per-path reference.
func checkCongestion(rep *Report, family string, v variant, opts Options, r *rng.RNG) {
	n := v.h.N()
	comp, _ := v.h.Components()
	want := 25
	if !opts.Quick {
		want = 60
	}
	var prob routing.Problem
	for tries := 0; tries < 40*want && len(prob) < want; tries++ {
		u, w := int32(r.Intn(n)), int32(r.Intn(n))
		if u != w && comp[u] == comp[w] {
			prob = append(prob, routing.Pair{Src: u, Dst: w})
		}
	}
	ck := &checker{rep: rep, family: family, check: "congestion/" + v.name, seed: opts.Seed}
	if len(prob) == 0 {
		return // all-singleton components: nothing to route
	}
	route, err := routing.ShortestPaths(v.h, prob)
	if !ck.assert(err == nil, "ShortestPaths: %v", err) {
		return
	}
	ck.assert(route.Validate(v.h) == nil, "routing failed validation on its own graph")
	refProfile := NodeCongestionProfile(route.Paths, n)
	refMax := NodeCongestion(route.Paths, n)
	for _, w := range workerCounts {
		ck.check = fmt.Sprintf("congestion/%s/workers=%d", v.name, w)
		got := route.NodeCongestionProfileWorkers(n, w)
		ck.assert(intsEqual(got, refProfile), "profile differs from reference at workers=%d", w)
		ck.assert(route.NodeCongestionWorkers(n, w) == refMax,
			"max congestion %d != reference %d", route.NodeCongestionWorkers(n, w), refMax)
	}
}

func intsEqual(a, b []int) bool {
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

// cacheTraceOp is one recorded cache operation.
type cacheTraceOp struct {
	get  bool
	u, v int32
	val  int32
}

// recordTrace draws a random get/put trace over a small key space —
// small enough that keys collide and evictions churn.
func recordTrace(r *rng.RNG, ops int) []cacheTraceOp {
	trace := make([]cacheTraceOp, ops)
	for i := range trace {
		u, v := int32(r.Intn(12)), int32(r.Intn(12))
		trace[i] = cacheTraceOp{
			get: r.Bernoulli(0.6),
			u:   u, v: v,
			val: int32(r.Intn(100)),
		}
	}
	return trace
}

// runCacheTrace replays recorded op traces against the oracle's sharded
// LRU. Single-shard configurations must match the model LRU op for op;
// multi-shard configurations (shard-local eviction order is a different
// policy by design) are held to the weaker per-key invariants.
func runCacheTrace(rep *Report, opts Options) {
	ops := 4000
	if opts.Quick {
		ops = 1500
	}
	trace := recordTrace(rng.New(opts.Seed^0xcac4e17ace), ops)

	for _, capacity := range []int{1, 2, 7, 64} {
		ck := &checker{rep: rep, family: "", seed: opts.Seed,
			check: fmt.Sprintf("cache-exact/cap=%d", capacity)}
		probe := oracle.NewCacheProbe(capacity, 1)
		if !ck.assert(probe.Slots() == capacity, "single shard has %d slots for capacity %d", probe.Slots(), capacity) {
			continue
		}
		model := NewModelLRU(capacity)
		for i, op := range trace {
			if op.get {
				gd, gok := probe.Get(op.u, op.v)
				md, mok := model.Get(PairKey(op.u, op.v))
				if !ck.assert(gok == mok && (!gok || gd == md),
					"op %d: Get(%d,%d) = (%d,%v), model says (%d,%v)", i, op.u, op.v, gd, gok, md, mok) {
					break
				}
			} else {
				probe.Put(op.u, op.v, op.val)
				model.Put(PairKey(op.u, op.v), op.val)
			}
		}
		hits, misses := probe.Counters()
		gets := int64(0)
		for _, op := range trace {
			if op.get {
				gets++
			}
		}
		ck.assert(hits+misses == gets, "hits %d + misses %d != gets %d", hits, misses, gets)
	}

	// Disabled cache: every get misses, puts are dropped.
	{
		ck := &checker{rep: rep, family: "", seed: opts.Seed, check: "cache-disabled"}
		probe := oracle.NewCacheProbe(-1, 0)
		ck.assert(probe.Slots() == 0, "disabled cache reports %d slots", probe.Slots())
		probe.Put(1, 2, 3)
		_, ok := probe.Get(1, 2)
		ck.assert(!ok, "disabled cache served a hit")
	}

	for _, cfg := range [][2]int{{64, 8}, {13, 4}, {100, 7}} {
		capacity, shards := cfg[0], cfg[1]
		ck := &checker{rep: rep, family: "", seed: opts.Seed,
			check: fmt.Sprintf("cache-sharded/cap=%d/shards=%d", capacity, shards)}
		probe := oracle.NewCacheProbe(capacity, shards)
		ck.assert(probe.Slots() >= capacity, "total slots %d below capacity %d", probe.Slots(), capacity)
		ck.assert(probe.Shards() >= 1 && probe.Shards()&(probe.Shards()-1) == 0,
			"shard count %d not a power of two", probe.Shards())
		last := make(map[uint64]int32)
		gets := int64(0)
		for i, op := range trace {
			key := PairKey(op.u, op.v)
			if op.get {
				gets++
				if d, ok := probe.Get(op.u, op.v); ok {
					want, ever := last[key]
					if !ck.assert(ever && d == want,
						"op %d: Get(%d,%d) hit %d, last put was (%d, present=%v)", i, op.u, op.v, d, want, ever) {
						break
					}
				}
			} else {
				probe.Put(op.u, op.v, op.val)
				last[key] = op.val
				// Single-threaded put-then-get on the same key must hit:
				// only other puts to the same shard could evict it.
				d, ok := probe.Get(op.u, op.v)
				gets++
				if !ck.assert(ok && d == op.val,
					"op %d: Get(%d,%d) right after Put = (%d,%v), want (%d,true)", i, op.u, op.v, d, ok, op.val) {
					break
				}
			}
		}
		hits, misses := probe.Counters()
		ck.assert(hits+misses == gets, "hits %d + misses %d != gets %d", hits, misses, gets)
	}
}
