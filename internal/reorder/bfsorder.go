package reorder

import (
	"context"

	"graphlocality/internal/graph"
)

// BFSOrder relabels vertices in breadth-first discovery order from the
// highest-degree vertex of each component (over the undirected view) — a
// classic cheap locality baseline: neighbours discovered together receive
// nearby IDs, giving a crude form of the community clustering that
// Rabbit-Order computes properly.
type BFSOrder struct{}

// Name implements Algorithm.
func (BFSOrder) Name() string { return "BFS" }

// Spec implements Algorithm.
func (BFSOrder) Spec() string { return "bfs" }

// Reorder implements Algorithm; it ignores ctx and cannot fail.
func (BFSOrder) Reorder(_ context.Context, g *graph.Graph) (graph.Permutation, error) {
	und := g.Undirected()
	n := und.NumVertices()
	order := make([]uint32, 0, n)
	visited := make([]bool, n)
	deg := make([]uint32, n)
	for v := uint32(0); v < n; v++ {
		deg[v] = und.OutDegree(v)
	}
	seeds := graph.VerticesByDegreeDesc(deg)
	queue := make([]uint32, 0, 1024)
	for _, s := range seeds {
		if visited[s] {
			continue
		}
		visited[s] = true
		queue = append(queue[:0], s)
		for i := 0; i < len(queue); i++ {
			v := queue[i]
			order = append(order, v)
			for _, u := range und.OutNeighbors(v) {
				if !visited[u] {
					visited[u] = true
					queue = append(queue, u)
				}
			}
		}
	}
	return orderToPerm(order), nil
}
