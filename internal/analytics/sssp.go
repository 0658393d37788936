package analytics

import "graphlocality/internal/graph"

// WeightFunc supplies the weight of edge (u,v). Weights must be
// non-negative for the provided algorithms.
type WeightFunc func(u, v uint32) uint32

// HashWeights returns a deterministic pseudo-random weight in [1, max]
// derived from the edge endpoints — the repo's stand-in for weighted
// graph datasets.
func HashWeights(max uint32) WeightFunc {
	return func(u, v uint32) uint32 {
		x := uint64(u)*0x9e3779b97f4a7c15 ^ uint64(v)*0xbf58476d1ce4e5b9
		x ^= x >> 29
		return uint32(x%uint64(max)) + 1
	}
}

// Unreachable is the distance of vertices SSSP cannot reach.
const Unreachable = ^uint64(0)

// SSSPResult holds single-source shortest-path distances.
type SSSPResult struct {
	Dist []uint64
	// Iterations counts frontier rounds (Bellman-Ford steps).
	Iterations int
	// Relaxations counts performed edge relax attempts.
	Relaxations uint64
}

// SSSP computes single-source shortest paths from src over out-edges with
// the given weights using frontier-based Bellman-Ford — the worklist
// structure the paper describes for selective traversals (§II-B): sparse
// phases process only the frontier, dense phases resemble SpMV.
func SSSP(g *graph.Graph, src uint32, w WeightFunc) SSSPResult {
	n := g.NumVertices()
	res := SSSPResult{Dist: make([]uint64, n)}
	for i := range res.Dist {
		res.Dist[i] = Unreachable
	}
	if n == 0 {
		return res
	}
	res.Dist[src] = 0
	frontier := []uint32{src}
	inNext := make([]bool, n)
	for len(frontier) > 0 {
		res.Iterations++
		var next []uint32
		for _, v := range frontier {
			dv := res.Dist[v]
			for _, u := range g.OutNeighbors(v) {
				res.Relaxations++
				if nd := dv + uint64(w(v, u)); nd < res.Dist[u] {
					res.Dist[u] = nd
					if !inNext[u] {
						inNext[u] = true
						next = append(next, u)
					}
				}
			}
		}
		for _, u := range next {
			inNext[u] = false
		}
		frontier = next
	}
	return res
}
