package spmv

import "graphlocality/internal/graph"

// SequentialPull is the reference single-threaded pull SpMV used to verify
// the parallel engine: dst[v] = Σ src[u] over in-neighbours u.
func SequentialPull(g *graph.Graph, src, dst []float64) {
	for v := uint32(0); v < g.NumVertices(); v++ {
		sum := 0.0
		for _, u := range g.InNeighbors(v) {
			sum += src[u]
		}
		dst[v] = sum
	}
}

// PageRank runs the classic PageRank power iteration on g, the paper's
// representative SpMV analytic (§III-B). pull is the iteration's SpMV
// step, dst[v] = Σ src[u] over in-neighbours u of g: an Engine's Pull
// wrapped in a closure, or ihtl's Blocked.SpMV, which reaches the same
// ranks through a different traversal. It returns the rank vector after
// iters iterations with damping d.
func PageRank(g *graph.Graph, pull func(src, dst []float64), iters int, d float64) []float64 {
	n := int(g.NumVertices())
	if n == 0 {
		return nil
	}
	rank := make([]float64, n)
	contrib := make([]float64, n)
	next := make([]float64, n)
	for i := range rank {
		rank[i] = 1 / float64(n)
	}
	for it := 0; it < iters; it++ {
		for v := 0; v < n; v++ {
			if od := g.OutDegree(uint32(v)); od > 0 {
				contrib[v] = rank[v] / float64(od)
			} else {
				contrib[v] = 0
			}
		}
		pull(contrib, next)
		base := (1 - d) / float64(n)
		for v := 0; v < n; v++ {
			rank[v] = base + d*next[v]
		}
	}
	return rank
}

// NaiveSpMV is a deliberately framework-style pull SpMV over an
// adjacency-map representation, standing in for the overhead-laden graph
// frameworks of §III-B's comparison: per-vertex map lookups and interface
// indirection dominate, exactly the overheads hand-optimized CSR kernels
// avoid.
type NaiveSpMV struct {
	n   uint32
	adj map[uint32][]uint32 // v -> in-neighbours
}

// NewNaive builds the adjacency-map representation of g.
func NewNaive(g *graph.Graph) *NaiveSpMV {
	m := &NaiveSpMV{n: g.NumVertices(), adj: make(map[uint32][]uint32)}
	for v := uint32(0); v < g.NumVertices(); v++ {
		if in := g.InNeighbors(v); len(in) > 0 {
			m.adj[v] = append([]uint32(nil), in...)
		}
	}
	return m
}

// Pull performs the same computation as Engine.Pull.
func (m *NaiveSpMV) Pull(src, dst []float64) {
	for v := uint32(0); v < m.n; v++ {
		sum := 0.0
		for _, u := range m.adj[v] {
			sum += src[u]
		}
		dst[v] = sum
	}
}
