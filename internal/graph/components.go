package graph

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
