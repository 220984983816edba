// Package graphtest holds helpers shared by tests of the packages built
// on internal/graph.
package graphtest

import "repro/internal/graph"

// DiffEdges merges two canonical edge lists (each edge once with U < V,
// sorted lexicographically) into the edges only in cur (added) and the
// edges only in old (removed), both canonical.
func DiffEdges(old, cur []graph.Edge) (added, removed []graph.Edge) {
	i, j := 0, 0
	for i < len(old) || j < len(cur) {
		switch {
		case j == len(cur) || (i < len(old) && graph.CompareEdges(old[i], cur[j]) < 0):
			removed = append(removed, old[i])
			i++
		case i == len(old) || graph.CompareEdges(cur[j], old[i]) < 0:
			added = append(added, cur[j])
			j++
		default:
			i++
			j++
		}
	}
	return added, removed
}
