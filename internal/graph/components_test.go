package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConnectedComponentsSimple(t *testing.T) {
	// Two components: {0,1,2} via directed chain, {3,4}.
	g := FromEdges(5, []Edge{{0, 1}, {2, 1}, {3, 4}})
	labels, k := g.ConnectedComponents()
	if k != 2 {
		t.Fatalf("k = %d, want 2", k)
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Error("0,1,2 should share a component (undirected view)")
	}
	if labels[3] != labels[4] {
		t.Error("3,4 should share a component")
	}
	if labels[0] == labels[3] {
		t.Error("components should differ")
	}
}

func TestConnectedComponentsIsolated(t *testing.T) {
	g := FromEdges(3, nil)
	labels, k := g.ConnectedComponents()
	if k != 3 {
		t.Fatalf("k = %d, want 3", k)
	}
	seen := map[uint32]bool{}
	for _, l := range labels {
		if seen[l] {
			t.Error("isolated vertices share labels")
		}
		seen[l] = true
	}
}

func TestComponentSizes(t *testing.T) {
	g := FromEdges(5, []Edge{{0, 1}, {2, 1}, {3, 4}})
	labels, k := g.ConnectedComponents()
	sizes := ComponentSizes(labels, k)
	total := uint32(0)
	for _, s := range sizes {
		total += s
	}
	if total != 5 {
		t.Errorf("sizes sum to %d, want 5", total)
	}
}

// Property: components partition the vertex set; every edge's endpoints
// share a label.
func TestComponentsPartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := uint32(rng.Intn(80) + 1)
		g := randomGraph(rng, n, rng.Intn(200))
		labels, k := g.ConnectedComponents()
		for _, l := range labels {
			if l >= k {
				return false
			}
		}
		for _, e := range g.Edges() {
			if labels[e.Src] != labels[e.Dst] {
				return false
			}
		}
		sizes := ComponentSizes(labels, k)
		var total uint32
		for _, s := range sizes {
			if s == 0 {
				return false // no empty components
			}
			total += s
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Connected-component utilities over the undirected view of a graph.

// ConnectedComponents labels each vertex with a component ID in [0, k) over
// the undirected view of g (an edge in either direction connects). It
// returns the labels and component count. Labels are assigned in order of
// first discovery (ascending smallest vertex ID per component).
func (g *Graph) ConnectedComponents() ([]uint32, uint32) {
	labels := make([]uint32, g.n)
	for i := range labels {
		labels[i] = NoVertex
	}
	var next uint32
	queue := make([]uint32, 0, 1024)
	for start := uint32(0); start < g.n; start++ {
		if labels[start] != NoVertex {
			continue
		}
		labels[start] = next
		queue = append(queue[:0], start)
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, u := range g.OutNeighbors(v) {
				if labels[u] == NoVertex {
					labels[u] = next
					queue = append(queue, u)
				}
			}
			for _, u := range g.InNeighbors(v) {
				if labels[u] == NoVertex {
					labels[u] = next
					queue = append(queue, u)
				}
			}
		}
		next++
	}
	return labels, next
}

// ComponentSizes returns, for labels produced by ConnectedComponents, the
// number of vertices in each component.
func ComponentSizes(labels []uint32, k uint32) []uint32 {
	sizes := make([]uint32, k)
	for _, l := range labels {
		if l != NoVertex {
			sizes[l]++
		}
	}
	return sizes
}
