package reorder

import (
	"context"
	"sort"

	"graphlocality/internal/graph"
)

// RCM is the Reverse Cuthill–McKee ordering (Cuthill & McKee 1969), the
// classic bandwidth-reduction reordering from sparse linear algebra,
// included as a historical baseline (paper ref. [3]). It performs a BFS
// over the undirected view starting from a minimum-degree vertex of each
// component, visiting neighbours in ascending degree order, and reverses
// the resulting order.
type RCM struct{}

func init() {
	MustRegister(Registration{
		Name:        "rcm",
		Description: "Reverse Cuthill-McKee bandwidth reduction (1969 baseline)",
		Class:       ClassLight,
		New:         func(Params) (Algorithm, error) { return RCM{}, nil },
	})
}

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
	order := make([]uint32, 0, n)
	queue := make([]uint32, 0, 1024)

	// Seeds in ascending degree order so each component starts from a
	// pseudo-peripheral low-degree vertex.
	seeds := graph.VerticesByDegreeAsc(deg)
	for _, s := range seeds {
		if visited[s] {
			continue
		}
		visited[s] = true
		queue = append(queue[:0], s)
		for i := 0; i < len(queue); i++ {
			v := queue[i]
			order = append(order, v)
			nbrs := append([]uint32(nil), u.OutNeighbors(v)...)
			sort.Slice(nbrs, func(a, b int) bool {
				x, y := nbrs[a], nbrs[b]
				if deg[x] != deg[y] {
					return deg[x] < deg[y]
				}
				return x < y
			})
			for _, w := range nbrs {
				if !visited[w] {
					visited[w] = true
					queue = append(queue, w)
				}
			}
		}
	}
	// Reverse.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return orderToPerm(order), nil
}
