package oracle

import "repro/internal/graph"

// BiDistance runs one bidirectional search on fresh scratch, seeded with
// the upper bound ub, for the external bound-pruning test.
func BiDistance(h *graph.Graph, u, v, ub int32) int32 {
	return newBiScratch(h.N()).distance(h, u, v, ub)
}

// LandmarkBounds returns the upper-bound function of a k-landmark table
// built on h exactly as the landmark backend builds it.
func LandmarkBounds(h *graph.Graph, k int, seed uint64) func(u, v int32) int32 {
	return buildLandmarkTable(h, k, seed).upperBound
}
