package graph

import (
	"cmp"
	"slices"
)

// OutDegrees returns a freshly allocated slice of all out-degrees.
func (g *Graph) OutDegrees() []uint32 {
	d := make([]uint32, g.n)
	for v := uint32(0); v < g.n; v++ {
		d[v] = g.OutDegree(v)
	}
	return d
}

// InDegrees returns a freshly allocated slice of all in-degrees.
func (g *Graph) InDegrees() []uint32 {
	d := make([]uint32, g.n)
	for v := uint32(0); v < g.n; v++ {
		d[v] = g.InDegree(v)
	}
	return d
}

// TotalDegrees returns out-degree + in-degree per vertex.
func (g *Graph) TotalDegrees() []uint32 {
	d := make([]uint32, g.n)
	for v := uint32(0); v < g.n; v++ {
		d[v] = g.OutDegree(v) + g.InDegree(v)
	}
	return d
}

// VerticesByDegreeDesc returns vertex IDs sorted by the given degree slice,
// descending; ties broken by ascending vertex ID for determinism.
func VerticesByDegreeDesc(degrees []uint32) []uint32 {
	return verticesByDegree(degrees, true)
}

// VerticesByDegreeAsc returns vertex IDs sorted by degree ascending; ties
// broken by ascending vertex ID.
func VerticesByDegreeAsc(degrees []uint32) []uint32 {
	return verticesByDegree(degrees, false)
}

// verticesByDegree is a stable counting sort of the vertex IDs by degree,
// in O(n + max degree): IDs are scattered in ascending order, so they stay
// ascending within a degree. Degrees far above n (which no simple graph
// has) fall back to a comparison sort rather than a huge count array.
func verticesByDegree(degrees []uint32, desc bool) []uint32 {
	var maxDeg uint32
	for _, d := range degrees {
		maxDeg = max(maxDeg, d)
	}
	key := func(d uint32) uint32 {
		if desc {
			return maxDeg - d
		}
		return d
	}
	order := make([]uint32, len(degrees))
	if uint64(maxDeg) > 4*uint64(len(degrees))+64 {
		for i := range order {
			order[i] = uint32(i)
		}
		slices.SortStableFunc(order, func(a, b uint32) int { return cmp.Compare(key(degrees[a]), key(degrees[b])) })
		return order
	}
	// start[k] is where the IDs whose degree has key k begin.
	start := make([]uint32, maxDeg+2)
	for _, d := range degrees {
		start[key(d)+1]++
	}
	for k := 1; k < len(start); k++ {
		start[k] += start[k-1]
	}
	for v, d := range degrees {
		k := key(d)
		order[start[k]] = uint32(v)
		start[k]++
	}
	return order
}

// CountInHubs returns the number of vertices with in-degree > √|V|.
func (g *Graph) CountInHubs() uint32 {
	t := g.HubThreshold()
	var c uint32
	for v := uint32(0); v < g.n; v++ {
		if float64(g.InDegree(v)) > t {
			c++
		}
	}
	return c
}

// CountOutHubs returns the number of vertices with out-degree > √|V|.
func (g *Graph) CountOutHubs() uint32 {
	t := g.HubThreshold()
	var c uint32
	for v := uint32(0); v < g.n; v++ {
		if float64(g.OutDegree(v)) > t {
			c++
		}
	}
	return c
}
