package graph

// Unreachable is the distance value reported for vertices not connected to
// the BFS source.
const Unreachable = int32(-1)

// BFS computes hop distances from src to every vertex. Unreachable vertices
// get Unreachable. The returned slice has length g.N().
func (g *Graph) BFS(src int32) []int32 {
	dist := make([]int32, g.n)
	for i := range dist {
		dist[i] = Unreachable
	}
	g.bfsInto(src, -1, dist, nil)
	return dist
}

// BFSWithin computes hop distances from src but abandons vertices farther
// than limit hops; those report Unreachable. limit < 0 means no limit.
func (g *Graph) BFSWithin(src int32, limit int32) []int32 {
	dist := make([]int32, g.n)
	for i := range dist {
		dist[i] = Unreachable
	}
	g.bfsInto(src, limit, dist, nil)
	return dist
}

// bfsInto runs BFS from src into dist (which must be pre-filled with
// Unreachable). If parent is non-nil it records BFS-tree parents (parent of
// src is src). Vertices beyond limit hops are not explored when limit >= 0.
// The queue is reused storage allocated per call; for bulk workloads use
// NewBFSScratch. It returns the number of queue entries scanned — the
// work-counting seam the depth-limit test pins the early break on.
func (g *Graph) bfsInto(src, limit int32, dist, parent []int32) int {
	queue := make([]int32, 0, 64)
	queue = append(queue, src)
	dist[src] = 0
	if parent != nil {
		parent[src] = src
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		dv := dist[v]
		if limit >= 0 && dv >= limit {
			// Queue distances are monotone non-decreasing, so every later
			// entry is at or beyond the limit level too: stop instead of
			// scanning the rest of the queue one by one.
			return head + 1
		}
		for _, w := range g.Neighbors(v) {
			if dist[w] == Unreachable {
				dist[w] = dv + 1
				if parent != nil {
					parent[w] = v
				}
				queue = append(queue, w)
			}
		}
	}
	return len(queue)
}

// Dist returns the hop distance between u and v, or Unreachable if they are
// in different components. It runs a plain unidirectional BFS from u that
// exits as soon as v is discovered; callers that need the bidirectional
// machinery (meet-in-the-middle frontiers) use the oracle's bounded
// bidirectional search, which carries its own scratch.
func (g *Graph) Dist(u, v int32) int32 { return bfsDist(g.n, g.Neighbors, u, v) }

// bfsDist is the early-exit BFS behind Graph.Dist and DynGraph.Dist,
// generic over the adjacency accessor.
func bfsDist(n int, neighbors func(int32) []int32, u, v int32) int32 {
	if u == v {
		return 0
	}
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = Unreachable
	}
	queue := []int32{u}
	dist[u] = 0
	for head := 0; head < len(queue); head++ {
		x := queue[head]
		for _, w := range neighbors(x) {
			if dist[w] == Unreachable {
				dist[w] = dist[x] + 1
				if w == v {
					return dist[w]
				}
				queue = append(queue, w)
			}
		}
	}
	return Unreachable
}

// DistWithin returns the hop distance between u and v if it is at most
// limit, and Unreachable otherwise. This is the primitive behind 3-detour
// existence checks (is dist_{G'}(u,v) <= 3 after removing edge (u,v)?).
func (g *Graph) DistWithin(u, v, limit int32) int32 {
	if u == v {
		return 0
	}
	if limit <= 0 {
		return Unreachable
	}
	dist := make([]int32, g.n)
	for i := range dist {
		dist[i] = Unreachable
	}
	queue := []int32{u}
	dist[u] = 0
	for head := 0; head < len(queue); head++ {
		x := queue[head]
		if dist[x] >= limit {
			break
		}
		for _, w := range g.Neighbors(x) {
			if dist[w] == Unreachable {
				dist[w] = dist[x] + 1
				if w == v {
					return dist[w]
				}
				queue = append(queue, w)
			}
		}
	}
	return Unreachable
}

// ShortestPath returns one shortest u–v path as a vertex sequence
// (inclusive of both endpoints), or nil if v is unreachable from u.
func (g *Graph) ShortestPath(u, v int32) []int32 {
	if u == v {
		return []int32{u}
	}
	dist := make([]int32, g.n)
	parent := make([]int32, g.n)
	for i := range dist {
		dist[i] = Unreachable
	}
	g.bfsInto(u, -1, dist, parent)
	if dist[v] == Unreachable {
		return nil
	}
	path := make([]int32, 0, dist[v]+1)
	for x := v; ; x = parent[x] {
		path = append(path, x)
		if x == u {
			break
		}
	}
	// Reverse in place so the path runs u -> v.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

// Eccentricity returns the maximum BFS distance from v to any reachable
// vertex, plus whether all vertices were reachable.
func (g *Graph) Eccentricity(v int32) (int32, bool) {
	dist := g.BFS(v)
	ecc := int32(0)
	all := true
	for _, d := range dist {
		if d == Unreachable {
			all = false
			continue
		}
		if d > ecc {
			ecc = d
		}
	}
	return ecc, all
}

// DiameterLowerBound estimates the diameter with a double-sweep: BFS from
// src, then BFS from the farthest vertex found. The result is an exact
// diameter on trees and a lower bound in general; it also reports whether
// the graph was connected from src's component point of view.
func (g *Graph) DiameterLowerBound(src int32) (int32, bool) {
	dist := g.BFS(src)
	far, fd := src, int32(0)
	conn := true
	for v, d := range dist {
		if d == Unreachable {
			conn = false
			continue
		}
		if d > fd {
			fd = d
			far = int32(v)
		}
	}
	ecc, _ := g.Eccentricity(far)
	return ecc, conn
}

// Girth returns the length of the shortest cycle, or -1 for forests.
// O(n·m) BFS from every vertex; sized for analysis of spanner outputs
// (the Erdős girth conjecture ties spanner size lower bounds to girth:
// an α-spanner contains no cycle of length ≤ α+1 created by a removed
// chord, and the greedy α-spanner has girth > α+1).
func (g *Graph) Girth() int32 {
	best := Unreachable
	dist := make([]int32, g.n)
	parent := make([]int32, g.n)
	queue := make([]int32, 0, 64)
	for src := int32(0); src < int32(g.n); src++ {
		for i := range dist {
			dist[i] = Unreachable
		}
		queue = queue[:0]
		queue = append(queue, src)
		dist[src] = 0
		parent[src] = -1
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			if best != Unreachable && 2*dist[v] >= best {
				break // no shorter cycle through src can be found
			}
			for _, w := range g.Neighbors(v) {
				if dist[w] == Unreachable {
					dist[w] = dist[v] + 1
					parent[w] = v
					queue = append(queue, w)
				} else if parent[v] != w {
					// Non-tree edge closes a cycle through src of length
					// dist[v] + dist[w] + 1 (a lower bound that is exact
					// for the girth when minimized over all sources).
					c := dist[v] + dist[w] + 1
					if best == Unreachable || c < best {
						best = c
					}
				}
			}
		}
	}
	return best
}

// Connected reports whether the graph is connected (the empty graph and
// single-vertex graph are connected).
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	dist := g.BFS(0)
	for _, d := range dist {
		if d == Unreachable {
			return false
		}
	}
	return true
}

// Components returns a component id per vertex and the component count.
// Ids are dense in [0, count) in order of first-seen vertex.
func (g *Graph) Components() ([]int32, int) {
	comp := make([]int32, g.n)
	for i := range comp {
		comp[i] = -1
	}
	next := int32(0)
	queue := make([]int32, 0, 64)
	for s := int32(0); s < int32(g.n); s++ {
		if comp[s] != -1 {
			continue
		}
		comp[s] = next
		queue = queue[:0]
		queue = append(queue, s)
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			for _, w := range g.Neighbors(v) {
				if comp[w] == -1 {
					comp[w] = next
					queue = append(queue, w)
				}
			}
		}
		next++
	}
	return comp, int(next)
}
