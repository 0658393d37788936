// Package trace turns SpMV graph traversals (Algorithm 1 of the paper)
// into memory-access streams for the cache simulator. It reproduces the
// paper's source-level instrumentation: every load and store the traversal
// performs — offsets reads, edges reads, random vertex-data reads/writes —
// is issued to a sink in program order (§V-B). Memory instructions are the
// only simulated instructions, which is what makes the technique fast
// enough for large graphs.
//
// The paper's two-phase parallel simulation (per-thread access logging,
// then round-robin interval interleaving across threads) is implemented by
// Run and Generate via per-partition access generators (see Stream).
package trace

import "graphlocality/internal/graph"

// Element sizes per the paper's representation (§II-A, §III-B).
const (
	OffsetBytes     = 8 // offsets array elements
	EdgeBytes       = 4 // edges array elements
	VertexDataBytes = 8 // vertex data elements
)

// Kind classifies a memory access by the array it touches.
type Kind uint8

const (
	// KindOffsets is a sequential read of the offsets array.
	KindOffsets Kind = iota
	// KindEdges is a sequential, streamed read of the edges array.
	KindEdges
	// KindVertexRead is a random read of old vertex data (Di).
	KindVertexRead
	// KindVertexWrite is a write of new vertex data (Di+1); sequential in
	// a pull traversal, random in a push traversal.
	KindVertexWrite
)

// String names the access kind.
func (k Kind) String() string {
	switch k {
	case KindOffsets:
		return "offsets"
	case KindEdges:
		return "edges"
	case KindVertexRead:
		return "vertex-read"
	case KindVertexWrite:
		return "vertex-write"
	}
	return "unknown"
}

// Access is one simulated memory instruction.
type Access struct {
	Addr  uint64
	Kind  Kind
	Write bool
	// Vertex is the vertex whose data/metadata is touched (the data
	// owner: for a random read of Di[u] this is u).
	Vertex uint32
	// Dest is the vertex being processed when the access is issued (the
	// outer-loop vertex of Algorithm 1). Misses attributed to Dest give
	// the paper's Fig. 1 view: how expensive it is to *process* vertices
	// of each degree class.
	Dest uint32
}

// Bytes returns the size of the element this access touches, per the
// paper's representation (§II-A): 8 B offsets, 4 B edges, 8 B vertex
// data. Summing Bytes over a stream gives the deterministic bytes-touched
// figure the observability manifests report per stage.
func (a Access) Bytes() uint64 {
	switch a.Kind {
	case KindOffsets:
		return OffsetBytes
	case KindEdges:
		return EdgeBytes
	default:
		return VertexDataBytes
	}
}

// Layout assigns virtual addresses to the four arrays of an SpMV
// traversal: offsets (|V|+1 × 8 B), edges (|E| × 4 B), old vertex data Di
// (|V| × 8 B) and new vertex data Di+1 (|V| × 8 B). Arrays are placed on
// disjoint, page-aligned extents the way a real allocator would.
type Layout struct {
	OffsetsBase uint64
	EdgesBase   uint64
	OldDataBase uint64
	NewDataBase uint64
	n           uint32
	m           uint64
}

// NewLayout builds the canonical layout for graph g. It needs only the
// graph's dimensions, so any Topology — in-RAM or segment-backed — gets
// the same addresses for the same |V| and |E|.
func NewLayout(g graph.Dims) Layout {
	const pageAlign = 1 << 21 // 2 MiB alignment between arrays
	align := func(x uint64) uint64 { return (x + pageAlign - 1) &^ uint64(pageAlign-1) }
	n, m := uint64(g.NumVertices()), g.NumEdges()
	l := Layout{n: g.NumVertices(), m: m}
	l.OffsetsBase = pageAlign
	l.EdgesBase = align(l.OffsetsBase + (n+1)*OffsetBytes)
	l.OldDataBase = align(l.EdgesBase + m*EdgeBytes)
	l.NewDataBase = align(l.OldDataBase + n*VertexDataBytes)
	return l
}

// OffsetsAddr returns the address of offsets[i].
func (l Layout) OffsetsAddr(i uint32) uint64 {
	return l.OffsetsBase + uint64(i)*OffsetBytes
}

// EdgeAddr returns the address of edges[i].
func (l Layout) EdgeAddr(i uint64) uint64 {
	return l.EdgesBase + i*EdgeBytes
}

// OldDataAddr returns the address of Di[v].
func (l Layout) OldDataAddr(v uint32) uint64 {
	return l.OldDataBase + uint64(v)*VertexDataBytes
}

// NewDataAddr returns the address of Di+1[v].
func (l Layout) NewDataAddr(v uint32) uint64 {
	return l.NewDataBase + uint64(v)*VertexDataBytes
}

// InOldData reports whether addr falls inside the Di array — the randomly
// accessed vertex data whose cache share the ECS metric measures.
func (l Layout) InOldData(addr uint64) bool {
	return addr >= l.OldDataBase && addr < l.OldDataBase+uint64(l.n)*VertexDataBytes
}

// FootprintBytes returns the total size of all four arrays (excluding
// alignment padding).
func (l Layout) FootprintBytes() uint64 {
	return (uint64(l.n)+1)*OffsetBytes + l.m*EdgeBytes + 2*uint64(l.n)*VertexDataBytes
}
