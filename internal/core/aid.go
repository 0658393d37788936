package core

import "graphlocality/internal/graph"

// AID computes the Neighbour-to-Neighbour Average ID Distance of vertex v
// (§V-A, Eq. 1): with the in-neighbour list sorted ascending, the mean of
// the absolute differences between consecutive neighbour IDs:
//
//	AID(v) = Σ_{i=2..|N|} |N_i − N_{i−1}|  /  |N|
//
// Lower AID generally means better spatial locality (type I): consecutive
// neighbours land on the same or nearby cache lines. For the pull SpMV the
// in-neighbours are the ones whose data is accessed, so AID considers only
// in-neighbours; vertices with fewer than two in-neighbours have AID 0.
func AID(g *graph.Graph, v uint32) float64 {
	nbrs := g.InNeighbors(v) // sorted ascending by construction
	if len(nbrs) < 2 {
		return 0
	}
	var sum float64
	for i := 1; i < len(nbrs); i++ {
		sum += float64(nbrs[i] - nbrs[i-1])
	}
	return sum / float64(len(nbrs))
}

// AIDByDegree computes the AID degree distribution (Fig. 3): vertices are
// binned by in-degree and the per-bin mean AID reported. It runs in
// O(|E|) time and O(#bins) extra space.
func AIDByDegree(g *graph.Graph) *DegreeSeries {
	s := NewDegreeSeries(LogBins(maxU32(g.MaxInDegree(), 1)))
	for v := uint32(0); v < g.NumVertices(); v++ {
		d := g.InDegree(v)
		if d == 0 {
			continue
		}
		s.Add(d, AID(g, v))
	}
	return s
}

// MeanAID returns the edge-weighted average AID over all vertices with at
// least two in-neighbours — a whole-graph spatial-locality summary.
func MeanAID(g *graph.Graph) float64 {
	var sum float64
	var cnt uint64
	for v := uint32(0); v < g.NumVertices(); v++ {
		if g.InDegree(v) >= 2 {
			sum += AID(g, v)
			cnt++
		}
	}
	if cnt == 0 {
		return 0
	}
	return sum / float64(cnt)
}

// AverageGap computes the "average gap profile" of related work
// (Barik et al., §V-A discussion): the mean |src−dst| over all edges. The
// paper contrasts it with AID: neighbours need only be close to *each
// other*, not to the vertex itself, so AID is the sharper spatial metric.
func AverageGap(g *graph.Graph) float64 {
	if g.NumEdges() == 0 {
		return 0
	}
	var total float64
	for v := uint32(0); v < g.NumVertices(); v++ {
		for _, u := range g.OutNeighbors(v) {
			d := float64(v) - float64(u)
			if d < 0 {
				d = -d
			}
			total += d
		}
	}
	return total / float64(g.NumEdges())
}

func maxU32(a, b uint32) uint32 {
	if a > b {
		return a
	}
	return b
}
