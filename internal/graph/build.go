package graph

import "fmt"

// FromEdges builds a Graph with n vertices from a directed edge list.
// Duplicate edges are kept (the CSR/CSC arrays simply contain them twice);
// use FromEdgesDedup to drop duplicates. Edges referencing vertices >= n
// cause a panic — the caller owns ID assignment.
//
// Construction is three counting scatters, O(|V|+|E|) time with no
// comparison sort: the edges go into CSC buckets in input order, and two
// transposes then yield the sorted CSR and the sorted CSC.
func FromEdges(n uint32, edges []Edge) *Graph {
	inOff, inAdj := scatterByDst(n, edges)
	return fromUnsortedCSC(n, inOff, inAdj, false)
}

// FromEdgesDedup builds a Graph with n vertices, removing duplicate edges
// (parallel edges collapse to one).
func FromEdgesDedup(n uint32, edges []Edge) *Graph {
	inOff, inAdj := scatterByDst(n, edges)
	return fromUnsortedCSC(n, inOff, inAdj, true)
}

// scatterByDst places every edge's source in the CSC bucket of its
// destination, in input order, so the buckets are not yet sorted.
func scatterByDst(n uint32, edges []Edge) ([]uint64, []uint32) {
	inOff := make([]uint64, n+1)
	for _, e := range edges {
		if e.Src >= n || e.Dst >= n {
			panic(fmt.Sprintf("graph: edge (%d,%d) out of range for n=%d", e.Src, e.Dst, n))
		}
		inOff[e.Dst+1]++
	}
	prefixSum(inOff)
	inAdj := make([]uint32, len(edges))
	for _, e := range edges {
		inAdj[inOff[e.Dst]] = e.Src
		inOff[e.Dst]++
	}
	restoreOffsets(inOff)
	return inOff, inAdj
}

// fromUnsortedCSC builds the graph whose CSC buckets are (inOff, inAdj),
// in any order within each bucket: one transpose gives the sorted CSR,
// which is optionally deduplicated in place, and a second transpose gives
// the sorted CSC, written back over the input arrays.
func fromUnsortedCSC(n uint32, inOff []uint64, inAdj []uint32, dedup bool) *Graph {
	outOff, outAdj := transpose(n, inOff, inAdj)
	if dedup {
		outAdj = dedupRows(n, outOff, outAdj)
		inAdj = inAdj[:len(outAdj)]
	}
	transposeInto(n, outOff, outAdj, inOff, inAdj)
	return &Graph{n: n, outOff: outOff, outAdj: outAdj, inOff: inOff, inAdj: inAdj}
}

// dedupRows drops repeated entries from every sorted row of (off, adj) in
// place, rewriting off, and returns the shortened adjacency.
func dedupRows(n uint32, off []uint64, adj []uint32) []uint32 {
	var w, lo uint64
	for v := uint32(0); v < n; v++ {
		hi, start := off[v+1], w
		for _, u := range adj[lo:hi] {
			if w == start || adj[w-1] != u {
				adj[w] = u
				w++
			}
		}
		lo, off[v+1] = hi, w
	}
	return adj[:w]
}

// transpose derives the transposed arrays of the rows (off, adj); see
// transposeInto.
func transpose(n uint32, off []uint64, adj []uint32) ([]uint64, []uint32) {
	tOff := make([]uint64, n+1)
	tAdj := make([]uint32, len(adj))
	transposeInto(n, off, adj, tOff, tAdj)
	return tOff, tAdj
}

// transposeInto is the counting-scatter kernel behind every builder in
// this package. It writes the transpose of the rows (off, adj) into tOff
// (n+1 entries) and tAdj (len(adj) entries): entry u of row v becomes
// entry v of bucket u. Rows are visited in ascending order, so every
// bucket fills in ascending order — sorted, duplicates kept — whatever
// the order within the input rows.
func transposeInto(n uint32, off []uint64, adj []uint32, tOff []uint64, tAdj []uint32) {
	clear(tOff)
	for _, u := range adj {
		tOff[u+1]++
	}
	prefixSum(tOff)
	for v := uint32(0); v < n; v++ {
		for _, u := range adj[off[v]:off[v+1]] {
			tAdj[tOff[u]] = v
			tOff[u]++
		}
	}
	restoreOffsets(tOff)
}

// prefixSum turns bucket sizes stored at off[v+1] into bucket offsets.
func prefixSum(off []uint64) {
	for i := 1; i < len(off); i++ {
		off[i] += off[i-1]
	}
}

// restoreOffsets undoes a scatter that used off[v] as bucket v's write
// cursor: afterwards off[v] holds the end of bucket v, which is the start
// of bucket v+1.
func restoreOffsets(off []uint64) {
	copy(off[1:], off)
	off[0] = 0
}

// FromCSR builds a Graph from CSR arrays whose buckets may be in any
// order; the arrays are copied, not retained. Two transposes give the
// sorted CSC and then the sorted CSR. offsets must have n+1 entries,
// start at 0 and end at len(adj).
func FromCSR(n uint32, offsets []uint64, adj []uint32) (*Graph, error) {
	if len(offsets) != int(n)+1 {
		return nil, fmt.Errorf("graph: FromCSR: offsets length %d != n+1 (%d)", len(offsets), n+1)
	}
	if offsets[0] != 0 {
		return nil, fmt.Errorf("graph: FromCSR: head offset %d != 0", offsets[0])
	}
	if offsets[n] != uint64(len(adj)) {
		return nil, fmt.Errorf("graph: FromCSR: tail offset %d != |adj| %d", offsets[n], len(adj))
	}
	for v := uint32(0); v < n; v++ {
		if offsets[v] > offsets[v+1] {
			return nil, fmt.Errorf("graph: FromCSR: offsets not monotone at %d", v)
		}
	}
	for v := uint32(0); v < n; v++ {
		for _, u := range adj[offsets[v]:offsets[v+1]] {
			if u >= n {
				return nil, fmt.Errorf("graph: FromCSR: neighbour %d of %d out of range", u, v)
			}
		}
	}
	g := &Graph{n: n}
	g.inOff, g.inAdj = transpose(n, offsets, adj)
	g.outOff, g.outAdj = transpose(n, g.inOff, g.inAdj)
	return g, nil
}

// RemoveZeroDegree drops vertices with in-degree and out-degree both zero,
// renumbering the remaining vertices contiguously while preserving their
// relative order (the paper removes zero-degree vertices from all datasets,
// §III-A). It returns the compacted graph and a mapping old→new where
// removed vertices map to NoVertex.
func (g *Graph) RemoveZeroDegree() (*Graph, []uint32) {
	keep := make([]bool, g.n)
	all := true
	for v := uint32(0); v < g.n; v++ {
		keep[v] = g.OutDegree(v) != 0 || g.InDegree(v) != 0
		all = all && keep[v]
	}
	if all {
		return g, Identity(g.n) // nothing removed
	}
	return g.InducedSubgraph(keep)
}

// NoVertex is a sentinel vertex ID meaning "no vertex" / removed.
const NoVertex = ^uint32(0)
