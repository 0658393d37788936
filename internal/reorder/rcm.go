package reorder

import (
	"cmp"
	"context"
	"slices"

	"graphlocality/internal/graph"
)

// RCM is the Reverse Cuthill–McKee ordering (Cuthill & McKee 1969), the
// classic bandwidth-reduction reordering from sparse linear algebra,
// included as a historical baseline (paper ref. [3]). It performs a BFS
// over the undirected view starting from a minimum-degree vertex of each
// component, visiting neighbours in ascending degree order, and reverses
// the resulting order.
type RCM struct{}

// Name implements Algorithm.
func (RCM) Name() string { return "RCM" }

// Spec implements Algorithm.
func (RCM) Spec() string { return "rcm" }

// Reorder implements Algorithm; it ignores ctx and cannot fail.
func (RCM) Reorder(_ context.Context, g *graph.Graph) (graph.Permutation, error) {
	u := g.Undirected()
	n := u.NumVertices()
	deg := make([]uint32, n)
	for v := uint32(0); v < n; v++ {
		deg[v] = u.OutDegree(v)
	}
	visited := make([]bool, n)
	// order doubles as the BFS queue: a component's vertices are appended
	// in the order they are dequeued.
	order := make([]uint32, 0, n)
	var fresh []uint32
	byDegree := func(x, y uint32) int {
		if c := cmp.Compare(deg[x], deg[y]); c != 0 {
			return c
		}
		return cmp.Compare(x, y)
	}

	// Seeds in ascending degree order so each component starts from a
	// pseudo-peripheral low-degree vertex.
	seeds := graph.VerticesByDegreeAsc(deg)
	for _, s := range seeds {
		if visited[s] {
			continue
		}
		visited[s] = true
		order = append(order, s)
		for i := len(order) - 1; i < len(order); i++ {
			// Only the unvisited neighbours are enqueued, so only they
			// are sorted.
			fresh = fresh[:0]
			for _, w := range u.OutNeighbors(order[i]) {
				if !visited[w] {
					visited[w] = true
					fresh = append(fresh, w)
				}
			}
			slices.SortFunc(fresh, byDegree)
			order = append(order, fresh...)
		}
	}
	// Reverse.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return orderToPerm(order), nil
}
