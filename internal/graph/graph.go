// Package graph provides the compressed sparse row/column (CSR/CSC) graph
// representation used throughout the locality-analysis toolkit.
//
// Following the paper's §II-A, topology data consists of an offsets array of
// |V|+1 elements of 8 bytes each ([]uint64) and an edges array of |E|
// elements of 4 bytes each ([]uint32). The CSR edges array holds the
// destination of each out-edge; the CSC edges array holds the source of each
// in-edge. Vertex data arrays are indexed directly by vertex ID.
package graph

import (
	"fmt"
	"math"
	"sort"
)

// Edge is a directed edge from Src to Dst.
type Edge struct {
	Src, Dst uint32
}

// Graph is a directed graph stored in both CSR (out-edges) and CSC
// (in-edges) form. Adjacency lists are sorted in ascending order of
// neighbour ID, which several metrics (AID, asymmetricity) rely on.
//
// The zero value is an empty graph with no vertices.
type Graph struct {
	n uint32

	// CSR: out-edges. outOff has n+1 entries; outAdj[outOff[v]:outOff[v+1]]
	// are the destinations of v's out-edges, ascending.
	outOff []uint64
	outAdj []uint32

	// CSC: in-edges. inAdj[inOff[v]:inOff[v+1]] are the sources of v's
	// in-edges, ascending.
	inOff []uint64
	inAdj []uint32
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() uint32 { return g.n }

// NumEdges returns |E|.
func (g *Graph) NumEdges() uint64 { return uint64(len(g.outAdj)) }

// OutDegree returns the out-degree of v.
func (g *Graph) OutDegree(v uint32) uint32 {
	return uint32(g.outOff[v+1] - g.outOff[v])
}

// InDegree returns the in-degree of v.
func (g *Graph) InDegree(v uint32) uint32 {
	return uint32(g.inOff[v+1] - g.inOff[v])
}

// OutNeighbors returns the destinations of v's out-edges in ascending
// order. The returned slice aliases internal storage and must not be
// modified.
func (g *Graph) OutNeighbors(v uint32) []uint32 {
	return g.outAdj[g.outOff[v]:g.outOff[v+1]]
}

// InNeighbors returns the sources of v's in-edges in ascending order. The
// returned slice aliases internal storage and must not be modified.
func (g *Graph) InNeighbors(v uint32) []uint32 {
	return g.inAdj[g.inOff[v]:g.inOff[v+1]]
}

// OutOffsets returns the CSR offsets array (len |V|+1). The slice aliases
// internal storage and must not be modified.
func (g *Graph) OutOffsets() []uint64 { return g.outOff }

// InOffsets returns the CSC offsets array (len |V|+1). The slice aliases
// internal storage and must not be modified.
func (g *Graph) InOffsets() []uint64 { return g.inOff }

// OutEdges returns the CSR edges array. Must not be modified.
func (g *Graph) OutEdges() []uint32 { return g.outAdj }

// InEdges returns the CSC edges array. Must not be modified.
func (g *Graph) InEdges() []uint32 { return g.inAdj }

// AverageDegree returns |E|/|V|, the paper's threshold between low-degree
// and high-degree vertices. It returns 0 for an empty graph.
func (g *Graph) AverageDegree() float64 {
	if g.n == 0 {
		return 0
	}
	return float64(g.NumEdges()) / float64(g.n)
}

// HubThreshold returns √|V|, the paper's hub threshold: a vertex is an
// in-hub (out-hub) if its in-degree (out-degree) exceeds this value.
func (g *Graph) HubThreshold() float64 {
	return math.Sqrt(float64(g.n))
}

// MaxInDegree returns the largest in-degree in the graph.
func (g *Graph) MaxInDegree() uint32 {
	var m uint32
	for v := uint32(0); v < g.n; v++ {
		if d := g.InDegree(v); d > m {
			m = d
		}
	}
	return m
}

// Edges returns all edges of the graph in CSR order. The slice is freshly
// allocated.
func (g *Graph) Edges() []Edge {
	es := make([]Edge, 0, g.NumEdges())
	for v := uint32(0); v < g.n; v++ {
		for _, u := range g.OutNeighbors(v) {
			es = append(es, Edge{Src: v, Dst: u})
		}
	}
	return es
}

// HasEdge reports whether the edge (u,v) exists, via binary search on u's
// sorted out-adjacency.
func (g *Graph) HasEdge(u, v uint32) bool {
	adj := g.OutNeighbors(u)
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= v })
	return i < len(adj) && adj[i] == v
}

// Undirected returns the symmetrized graph: for every edge (u,v) both
// (u,v) and (v,u) exist, with duplicates removed. Self-loops are kept as a
// single directed self-edge in each direction's list (i.e. deduplicated).
//
// Each vertex's neighbour list is the deduplicating merge of its sorted
// out- and in-lists. The result is symmetric, so the CSC shares the CSR
// arrays.
func (g *Graph) Undirected() *Graph {
	off := make([]uint64, g.n+1)
	adj := make([]uint32, 0, len(g.outAdj)+len(g.inAdj))
	for v := uint32(0); v < g.n; v++ {
		a, b := g.OutNeighbors(v), g.InNeighbors(v)
		start, i, j := len(adj), 0, 0
		for i < len(a) || j < len(b) {
			var u uint32
			if j == len(b) || (i < len(a) && a[i] <= b[j]) {
				u, i = a[i], i+1
			} else {
				u, j = b[j], j+1
			}
			if len(adj) == start || adj[len(adj)-1] != u {
				adj = append(adj, u)
			}
		}
		off[v+1] = uint64(len(adj))
	}
	return &Graph{n: g.n, outOff: off, outAdj: adj, inOff: off, inAdj: adj}
}

// Validate checks internal invariants: offset monotonicity, neighbour-ID
// bounds, adjacency sortedness and CSR/CSC edge-count agreement. It returns
// a descriptive error for the first violation found, or nil.
func (g *Graph) Validate() error {
	if len(g.outOff) != int(g.n)+1 || len(g.inOff) != int(g.n)+1 {
		return fmt.Errorf("graph: offsets length mismatch: out=%d in=%d n=%d",
			len(g.outOff), len(g.inOff), g.n)
	}
	if g.outOff[0] != 0 || g.inOff[0] != 0 {
		return fmt.Errorf("graph: offsets must start at 0")
	}
	if g.outOff[g.n] != uint64(len(g.outAdj)) {
		return fmt.Errorf("graph: CSR tail offset %d != |outAdj| %d", g.outOff[g.n], len(g.outAdj))
	}
	if g.inOff[g.n] != uint64(len(g.inAdj)) {
		return fmt.Errorf("graph: CSC tail offset %d != |inAdj| %d", g.inOff[g.n], len(g.inAdj))
	}
	if len(g.outAdj) != len(g.inAdj) {
		return fmt.Errorf("graph: CSR/CSC edge counts differ: %d vs %d", len(g.outAdj), len(g.inAdj))
	}
	for v := uint32(0); v < g.n; v++ {
		if g.outOff[v] > g.outOff[v+1] {
			return fmt.Errorf("graph: CSR offsets not monotone at %d", v)
		}
		if g.inOff[v] > g.inOff[v+1] {
			return fmt.Errorf("graph: CSC offsets not monotone at %d", v)
		}
		if err := checkAdj(g.OutNeighbors(v), g.n, v, "out"); err != nil {
			return err
		}
		if err := checkAdj(g.InNeighbors(v), g.n, v, "in"); err != nil {
			return err
		}
	}
	return nil
}

func checkAdj(adj []uint32, n, v uint32, dir string) error {
	for i, u := range adj {
		if u >= n {
			return fmt.Errorf("graph: %s-neighbour %d of %d out of range (n=%d)", dir, u, v, n)
		}
		if i > 0 && adj[i-1] > u {
			return fmt.Errorf("graph: %s-adjacency of %d not sorted", dir, v)
		}
	}
	return nil
}

// Equal reports whether g and h have identical vertex counts and identical
// (sorted) adjacency structure.
func (g *Graph) Equal(h *Graph) bool {
	if g.n != h.n || g.NumEdges() != h.NumEdges() {
		return false
	}
	for v := uint32(0); v < g.n; v++ {
		a, b := g.OutNeighbors(v), h.OutNeighbors(v)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
	}
	return true
}

// String returns a short human-readable summary.
func (g *Graph) String() string {
	return fmt.Sprintf("Graph{|V|=%d, |E|=%d, avgdeg=%.2f}", g.n, g.NumEdges(), g.AverageDegree())
}
