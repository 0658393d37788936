package core

import (
	"graphlocality/internal/graph"
	"graphlocality/internal/trace"
)

// Packing factor (Faldu et al., "A Closer Look at Lightweight Graph
// Reordering", arXiv 2001.08448): how densely the hot vertices are packed
// into the cache lines that hold any of them,
//
//	PF = |hot| / (vertsPerLine × #lines containing ≥1 hot vertex)
//
// in (0, 1]: 1 means every line that caches hot vertex data carries only
// hot vertices, so no cache capacity is wasted co-locating cold data with
// the high-reuse working set; 1/vertsPerLine means hot vertices are
// maximally scattered, each dragging a full line of cold neighbours into
// the cache. Skew-aware orderings (HubSort, HubCluster, DBG, boba) exist
// precisely to raise this number, which makes it the natural structural
// companion to AID and ECS in the experiment tables.
//
// A vertex is hot when its total degree exceeds twice the average degree —
// the same above-average-total-degree criterion HubSort uses to pick hubs
// (total degree averages 2|E|/|V| = 2×AverageDegree).

// PackingVertsPerLine is the number of vertex-data elements per cache line
// under the paper's layout (64-byte lines, 8-byte elements).
const PackingVertsPerLine = 64 / trace.VertexDataBytes

// PackingFactor computes the packing factor of the graph's current vertex
// numbering. It returns 0 for an empty graph or a graph with no hot
// vertices (e.g. degree-regular graphs, where there is nothing to pack).
func PackingFactor(g *graph.Graph) float64 {
	deg := g.TotalDegrees()
	hot := 2 * g.AverageDegree() // total degree averages 2|E|/|V|
	var hotVerts, hotLines uint64
	for lo := 0; lo < len(deg); lo += PackingVertsPerLine {
		inLine := uint64(0)
		for _, d := range deg[lo:min(lo+PackingVertsPerLine, len(deg))] {
			if float64(d) > hot {
				inLine++
			}
		}
		if inLine > 0 {
			hotVerts += inLine
			hotLines++
		}
	}
	if hotLines == 0 {
		return 0
	}
	return float64(hotVerts) / float64(hotLines*PackingVertsPerLine)
}
