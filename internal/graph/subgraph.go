package graph

import "fmt"

// Subgraph is a read-only vertex view over a parent graph: the subgraph
// induced by one block of a membership partition, exposed through local
// vertex IDs [0, N) with O(1) local↔global translation. The view itself
// copies no edges — internal degrees and edge iteration are computed by
// scanning the parent's adjacency and filtering on membership — so
// classifying a community's structure costs one adjacency sweep and zero
// allocation of edge storage. Materialize builds the induced *Graph (with
// its own CSR/CSC arrays) only when a caller actually needs one, e.g. to
// run a reordering algorithm over the community.
//
// Views produced by PartitionByMembership share the partition's
// global→local array (each vertex belongs to exactly one block, so one
// array serves every view). A Subgraph is safe for concurrent readers.
type Subgraph struct {
	parent *Graph
	id     uint32   // this block's community label
	verts  []uint32 // local -> global, ascending global order
	// Shared across the partition: member[g] is the local ID of g within
	// its own block; membership[g] names that block. A global vertex u is
	// inside THIS view iff membership[u] == id.
	local      []uint32
	membership []uint32
}

// PartitionByMembership splits g into count vertex views, one per
// membership label: membership[v] ∈ [0, count) assigns every vertex to
// exactly one block. Within a block, local IDs follow ascending global ID
// order. The views share one global→local array, so building the whole
// partition is O(|V|) regardless of block count.
func (g *Graph) PartitionByMembership(membership []uint32, count int) []*Subgraph {
	if len(membership) != int(g.n) {
		panic(fmt.Sprintf("graph: PartitionByMembership membership length %d != |V| %d",
			len(membership), g.n))
	}
	sizes := make([]uint32, count)
	for v, c := range membership {
		if int(c) >= count {
			panic(fmt.Sprintf("graph: PartitionByMembership label %d of vertex %d out of range [0,%d)",
				c, v, count))
		}
		sizes[c]++
	}
	local := make([]uint32, g.n)
	blocks := make([][]uint32, count)
	for c, sz := range sizes {
		blocks[c] = make([]uint32, 0, sz)
	}
	for v := uint32(0); v < g.n; v++ {
		c := membership[v]
		local[v] = uint32(len(blocks[c]))
		blocks[c] = append(blocks[c], v)
	}
	views := make([]*Subgraph, count)
	for c := range views {
		views[c] = &Subgraph{
			parent: g, id: uint32(c), verts: blocks[c],
			local: local, membership: membership,
		}
	}
	return views
}

// NumVertices returns the view's vertex count.
func (s *Subgraph) NumVertices() uint32 { return uint32(len(s.verts)) }

// Parent returns the graph the view is defined over.
func (s *Subgraph) Parent() *Graph { return s.parent }

// Global translates a local vertex ID to the parent's ID space.
func (s *Subgraph) Global(l uint32) uint32 { return s.verts[l] }

// OutDegree returns the number of v's out-edges whose destination is also
// inside the view (v is a local ID). O(deg) in the parent degree.
func (s *Subgraph) OutDegree(v uint32) uint32 {
	var d uint32
	for _, u := range s.parent.OutNeighbors(s.verts[v]) {
		if s.membership[u] == s.id {
			d++
		}
	}
	return d
}

// InternalDegrees returns, per local vertex, the total internal degree
// (internal out-degree + internal in-degree) — the degree sequence of the
// induced subgraph's symmetrized view, which is what the structure
// classifier bins. One fresh slice, no edge copies.
func (s *Subgraph) InternalDegrees() []uint32 {
	deg := make([]uint32, len(s.verts))
	for l, gv := range s.verts {
		for _, u := range s.parent.OutNeighbors(gv) {
			if s.membership[u] == s.id {
				deg[l]++
			}
		}
		for _, u := range s.parent.InNeighbors(gv) {
			if s.membership[u] == s.id {
				deg[l]++
			}
		}
	}
	return deg
}

// Materialize builds the induced subgraph as a standalone *Graph in local
// ID space. Because local IDs follow ascending global order, a membership
// assigning every vertex to one block materializes to a graph Equal to
// the parent with identical IDs — the identity-embedding property the
// brew differential tests pin.
func (s *Subgraph) Materialize() *Graph {
	n := uint32(len(s.verts))
	// Direct CSR fill: count internal out-degrees, prefix-sum, fill.
	// Parent adjacency is sorted and local mapping is monotone within the
	// block, so each bucket comes out sorted without a per-bucket sort.
	off := make([]uint64, n+1)
	for l, gv := range s.verts {
		var d uint64
		for _, u := range s.parent.OutNeighbors(gv) {
			if s.membership[u] == s.id {
				d++
			}
		}
		off[l+1] = off[l] + d
	}
	adj := make([]uint32, off[n])
	var next uint64
	for _, gv := range s.verts {
		for _, u := range s.parent.OutNeighbors(gv) {
			if s.membership[u] == s.id {
				adj[next] = s.local[u]
				next++
			}
		}
	}
	g := &Graph{n: n, outOff: off, outAdj: adj}
	g.inOff, g.inAdj = transpose(n, off, adj)
	return g
}

// InducedSubgraph returns the subgraph induced by the vertices where
// keep[v] is true, with vertices renumbered contiguously in ascending
// original-ID order, plus the mapping old→new (removed vertices map to
// NoVertex). Edges survive iff both endpoints are kept. The kept vertices
// are block 1 of a two-block partition, materialized directly.
func (g *Graph) InducedSubgraph(keep []bool) (*Graph, []uint32) {
	if len(keep) != int(g.n) {
		panic("graph: InducedSubgraph keep mask length mismatch")
	}
	membership := make([]uint32, g.n)
	for v, k := range keep {
		if k {
			membership[v] = 1
		}
	}
	view := g.PartitionByMembership(membership, 2)[1]
	h := view.Materialize()
	// The view is done with, so its global→local array becomes the
	// mapping once the dropped block's local IDs are blanked out.
	mapping := view.local
	for v, k := range keep {
		if !k {
			mapping[v] = NoVertex
		}
	}
	return h, mapping
}
