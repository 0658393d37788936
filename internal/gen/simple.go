package gen

import "graphlocality/internal/graph"

// ErdosRenyi generates a uniform random directed graph with n vertices and
// approximately m edges (duplicates and self-loops removed). Uniform graphs
// have no hubs and serve as a control dataset: reordering algorithms should
// be close to neutral on them.
func ErdosRenyi(n uint32, m int, seed uint64) *graph.Graph {
	if n < 2 {
		return graph.FromEdges(n, nil)
	}
	rng := NewRNG(seed)
	edges := make([]graph.Edge, 0, m)
	for len(edges) < m {
		src := rng.Uint32n(n)
		dst := rng.Uint32n(n)
		if src == dst {
			continue
		}
		edges = append(edges, graph.Edge{Src: src, Dst: dst})
	}
	return graph.FromEdgesDedup(n, edges)
}

// PreferentialAttachment generates a directed Barabási–Albert-style graph:
// each new vertex links to k existing vertices chosen preferentially by
// total degree. In-degrees develop a power-law tail while out-degrees stay
// constant at k, giving another asymmetric-hub dataset.
func PreferentialAttachment(n uint32, k int, seed uint64) *graph.Graph {
	if n < 2 {
		return graph.FromEdges(n, nil)
	}
	rng := NewRNG(seed)
	edges := make([]graph.Edge, 0, int(n)*k)
	// endpointPool holds one entry per edge endpoint; sampling uniformly
	// from it is degree-proportional sampling.
	endpointPool := make([]uint32, 0, 2*int(n)*k)
	endpointPool = append(endpointPool, 0)
	for v := uint32(1); v < n; v++ {
		links := k
		if int(v) < k {
			links = int(v)
		}
		// v's picks so far are the edges appended since first; at most k,
		// so a scan checks them for a repeat.
		first := len(edges)
		for len(edges)-first < links {
			dst := endpointPool[rng.Intn(len(endpointPool))]
			if dst == v || linked(edges[first:], dst) {
				// Fall back to a uniform pick to guarantee progress in
				// degenerate early rounds.
				dst = rng.Uint32n(v)
				if dst == v || linked(edges[first:], dst) {
					continue
				}
			}
			edges = append(edges, graph.Edge{Src: v, Dst: dst})
			endpointPool = append(endpointPool, v, dst)
		}
	}
	return graph.FromEdgesDedup(n, edges)
}

// linked reports whether one of edges leads to dst.
func linked(edges []graph.Edge, dst uint32) bool {
	for _, e := range edges {
		if e.Dst == dst {
			return true
		}
	}
	return false
}

// Ring generates a directed cycle of n vertices — a graph with perfect
// spatial locality under the identity ordering, useful as a best-case
// fixture in tests.
func Ring(n uint32) *graph.Graph {
	edges := make([]graph.Edge, n)
	for v := uint32(0); v < n; v++ {
		edges[v] = graph.Edge{Src: v, Dst: (v + 1) % n}
	}
	return graph.FromEdges(n, edges)
}

// Star generates a star with vertex 0 at the centre and directed edges
// leaf -> centre, making vertex 0 an extreme in-hub.
func Star(n uint32) *graph.Graph {
	if n == 0 {
		return graph.FromEdges(0, nil)
	}
	edges := make([]graph.Edge, 0, n-1)
	for v := uint32(1); v < n; v++ {
		edges = append(edges, graph.Edge{Src: v, Dst: 0})
	}
	return graph.FromEdges(n, edges)
}

// Grid generates a 2D grid graph (rows × cols) with edges to the right and
// down neighbours — a planar, hub-free structure with high natural
// locality.
func Grid(rows, cols uint32) *graph.Graph {
	n := rows * cols
	edges := make([]graph.Edge, 0, 2*int(n))
	for r := uint32(0); r < rows; r++ {
		for c := uint32(0); c < cols; c++ {
			v := r*cols + c
			if c+1 < cols {
				edges = append(edges, graph.Edge{Src: v, Dst: v + 1})
			}
			if r+1 < rows {
				edges = append(edges, graph.Edge{Src: v, Dst: v + cols})
			}
		}
	}
	return graph.FromEdges(n, edges)
}
