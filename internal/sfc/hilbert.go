// Package sfc implements space-filling-curve edge ordering, the
// relabeling-free locality technique of the paper's related work (§IX-A,
// refs. [62]–[64]): instead of renumbering vertices, the *edges* are
// stored in coordinate-list (COO) form and sorted along a Hilbert curve
// over the adjacency matrix, so consecutively processed edges touch
// nearby rows and columns. It trades the CSC/CSR formats' sequential
// topology streaming for bounded working sets on both the source and
// destination side.
package sfc

import (
	"math/bits"
	"sort"

	"graphlocality/internal/graph"
)

// HilbertIndex maps the point (x, y) within a 2^order × 2^order grid to
// its position along the Hilbert curve. x and y must be < 2^order.
func HilbertIndex(order uint, x, y uint32) uint64 {
	var rx, ry uint32
	var d uint64
	for s := uint32(1) << (order - 1); s > 0; s >>= 1 {
		if x&s > 0 {
			rx = 1
		} else {
			rx = 0
		}
		if y&s > 0 {
			ry = 1
		} else {
			ry = 0
		}
		d += uint64(s) * uint64(s) * uint64((3*rx)^ry)
		// Rotate the quadrant.
		if ry == 0 {
			if rx == 1 {
				x = s - 1 - x
				y = s - 1 - y
			}
			x, y = y, x
		}
	}
	return d
}

// OrderFor returns the smallest curve order covering n vertices.
func OrderFor(n uint32) uint {
	if n <= 1 {
		return 1
	}
	return uint(bits.Len32(n - 1))
}

// COO is an edge list ordered for traversal.
type COO struct {
	Edges []graph.Edge
	n     uint32
}

// NumVertices returns |V|.
func (c *COO) NumVertices() uint32 { return c.n }

// HilbertOrder extracts g's edges and sorts them along the Hilbert curve
// over (src, dst).
func HilbertOrder(g *graph.Graph) *COO {
	order := OrderFor(g.NumVertices())
	edges := g.Edges()
	keys := make([]uint64, len(edges))
	for i, e := range edges {
		keys[i] = HilbertIndex(order, e.Src, e.Dst)
	}
	idx := make([]int, len(edges))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	sorted := make([]graph.Edge, len(edges))
	for i, j := range idx {
		sorted[i] = edges[j]
	}
	return &COO{Edges: sorted, n: g.NumVertices()}
}

// RowOrder extracts g's edges in CSR (row-major) order — the COO baseline
// equivalent to a push traversal.
func RowOrder(g *graph.Graph) *COO {
	return &COO{Edges: g.Edges(), n: g.NumVertices()}
}
