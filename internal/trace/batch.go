package trace

import (
	"math"

	"graphlocality/internal/graph"
)

// The block generator. Run pays one state-machine call and one sink call
// per access — 3|V|+2|E| of each per SpMV iteration, which would dominate
// simulation cost. Generate amortizes both: a bulk generator fills
// fixed-size columnar blocks with tight loops over the CSR/CSC rows, and
// the sink is invoked once per block.
//
// Bit-exactness contract: concatenating the blocks Generate delivers for a
// Stream yields exactly the access stream Run emits for it — same
// addresses, write flags, kinds, vertex/dest attribution, same order. The
// stream-equality tests here compare every column against Run, and the
// differential suite in core compares whole simulations.

// DefaultBatchSize is the block granularity of the generator: large enough
// to amortize one sink call over thousands of accesses, small enough that
// a block's columns stay cache-resident.
const DefaultBatchSize = 4096

// Block is a run of consecutive accesses in columnar form. Addrs, Writes
// and EdgeReads are always filled: they are all a plain cache simulation
// consumes, and EdgeReads fixes the block's bytes-touched sum (edges
// elements are 4 bytes, everything else 8). Kinds, Vertices and Dests —
// the per-access attribution fields of Access — are filled only when the
// caller asks for records, and are nil otherwise.
type Block struct {
	Addrs     []uint64
	Writes    []bool
	EdgeReads int

	Kinds    []Kind
	Vertices []uint32
	Dests    []uint32
}

// Access returns access i as a record. The block must carry records.
func (b *Block) Access(i int) Access {
	return Access{Addr: b.Addrs[i], Kind: b.Kinds[i], Write: b.Writes[i], Vertex: b.Vertices[i], Dest: b.Dests[i]}
}

// NewBlock allocates a block with room for n accesses, with the record
// columns when records is set.
func NewBlock(n int, records bool) *Block {
	b := &Block{Addrs: make([]uint64, n), Writes: make([]bool, n)}
	if records {
		b.Kinds = make([]Kind, n)
		b.Vertices = make([]uint32, n)
		b.Dests = make([]uint32, n)
	}
	return b
}

// reset readies b to be filled: every column back to its full capacity,
// the write flags cleared (fill stores only the true ones) and the
// edge-read count zeroed.
func (b *Block) reset() {
	b.Addrs, b.Writes = b.Addrs[:cap(b.Addrs)], b.Writes[:cap(b.Writes)]
	clear(b.Writes)
	b.EdgeReads = 0
	if b.Kinds != nil {
		b.Kinds, b.Vertices, b.Dests = b.Kinds[:cap(b.Kinds)], b.Vertices[:cap(b.Vertices)], b.Dests[:cap(b.Dests)]
	}
}

// cut trims b's columns to its first n accesses.
func (b *Block) cut(n int) {
	b.Addrs, b.Writes = b.Addrs[:n], b.Writes[:n]
	if b.Kinds != nil {
		b.Kinds, b.Vertices, b.Dests = b.Kinds[:n], b.Vertices[:n], b.Dests[:n]
	}
}

// setRecord stores the record columns of access i.
func (b *Block) setRecord(i int, k Kind, vertex, dest uint32) {
	b.Kinds[i] = k
	b.Vertices[i] = vertex
	b.Dests[i] = dest
}

// BlockSink receives consecutive blocks of the stream and reports whether
// the traversal should continue; returning false stops it (cooperative
// cancellation at block granularity). The block and its columns are reused
// for the next block once the sink returns.
type BlockSink func(b *Block) bool

// Generate delivers s's access stream over g in blocks of up to blockSize
// accesses (0 = DefaultBatchSize), with the record columns filled when
// records is set. Every block is full except the last. It reports whether
// the traversal ran to completion.
func Generate(g graph.Topology, l Layout, s Stream, blockSize int, records bool, sink BlockSink) bool {
	if blockSize < 1 {
		blockSize = DefaultBatchSize
	}
	buf := NewBlock(blockSize, records)
	return GenerateInto(g, l, s, func() *Block { return buf }, sink)
}

// GenerateInto is Generate over blocks the caller owns, so a consumer may
// keep a block after its sink returns (a pipeline hands it to the next
// stage). Before each block it calls next for a block with room for at
// least one access, whatever it held, and fills it to its capacity (the
// last block may hold fewer), with the record columns when the block has
// them. sink receives the block cut to its accesses,
// and GenerateInto never touches it again unless next returns it once
// more. next returning nil stops the stream. It reports whether the
// traversal ran to completion.
func GenerateInto(g graph.Topology, l Layout, s Stream, next func() *Block, sink BlockSink) bool {
	parts := s.partitions(g)
	iters := make([]*bulkIter, len(parts))
	for i, r := range parts {
		iters[i] = newBulkIter(g, l, s.Dir, r)
	}
	quota := s.Interval
	if len(iters) == 1 {
		quota = math.MaxInt // one source: nothing to interleave
	}

	var b *Block
	n, end := 0, 0
	flush := func() bool {
		if n == 0 {
			return true
		}
		b.cut(n)
		ok := sink(b)
		b, n, end = nil, 0, 0
		return ok
	}
	// Block boundaries are independent of slice boundaries: a slice may
	// span blocks and a block may hold slices of several threads.
	done := interleave(len(iters), quota, func(i, quota int) (bool, bool) {
		it := iters[i]
		for quota > 0 && !it.done {
			if n == end {
				if !flush() {
					return false, false
				}
				if b == nil {
					if b = next(); b == nil {
						return false, false
					}
					b.reset()
					end = len(b.Addrs)
				}
			}
			m := it.fill(b, n, n+min(quota, end-n), b.Kinds != nil)
			quota -= m - n
			n = m
		}
		return !it.done, true
	})
	return done && flush()
}

// ColumnSink receives a block's Addrs, Writes and EdgeReads; returning
// false stops the stream.
type ColumnSink func(addrs []uint64, writes []bool, edgeReads int) bool

// BatchSink receives a block as Access records; returning false stops the
// stream.
type BatchSink func(block []Access) bool

// RunColumns is Generate over Whole(g, dir) without records, with the
// block's columns passed as arguments. It is a thin adapter kept with this
// exact signature only because bench/localitybench calls it.
func RunColumns(g graph.Topology, l Layout, dir Direction, blockSize int, sink ColumnSink) bool {
	return Generate(g, l, Whole(g, dir), blockSize, false, func(b *Block) bool {
		return sink(b.Addrs, b.Writes, b.EdgeReads)
	})
}

// RunBatched is RunParallelBatched with one thread. It is a thin adapter
// kept with this exact signature only because bench/localitybench calls
// it.
func RunBatched(g graph.Topology, l Layout, dir Direction, blockSize int, sink BatchSink) bool {
	return RunParallelBatched(g, l, dir, 1, 1, blockSize, sink)
}

// RunParallelBatched is Generate over Whole(g, dir) with the given threads
// and interval, with each block handed over as Access records. It is a
// thin adapter kept with this exact signature only because
// bench/localitybench calls it.
func RunParallelBatched(g graph.Topology, l Layout, dir Direction, threads, interval, blockSize int, sink BatchSink) bool {
	s := Whole(g, dir)
	s.Threads, s.Interval = threads, interval
	var recs []Access
	return Generate(g, l, s, blockSize, true, func(b *Block) bool {
		recs = recs[:0]
		for i := range b.Addrs {
			recs = append(recs, b.Access(i))
		}
		return sink(recs)
	})
}

// bulkIter is the resumable bulk generator behind Generate: a cursor over
// one partition's program order whose fill method emits many accesses per
// call. It produces, access for access, the stream vertexIter produces,
// from a staged state machine of its own whose edges loop runs as a tight
// pair-emitting loop instead of one next() call per access.
//
// Rows arrive through the topology's RowCursor as contiguous spans (a
// single zero-copy span for the in-RAM graph, one decoded span per
// segment for a segment-backed graph). The offset values and the
// iterator's edge index ei are always *absolute*, so the addresses —
// and therefore every simulated outcome — are identical across
// representations; only the slice indexing is span-relative.
type bulkIter struct {
	l   Layout
	dir Direction
	cur graph.RowCursor
	r   graph.Range

	// Current span: offsets/adjacency of [base, spanHi), with adj[0] at
	// absolute edge index adjBase (= off[0]).
	off     []uint64
	adj     []uint32
	base    uint32
	adjBase uint64
	spanHi  uint32

	v    uint32 // current vertex
	ei   uint64 // current absolute edge index
	hi   uint64 // one past v's last edge index
	st   int
	done bool
}

// bulkIter stages. stEdgeData exists for the case where a block boundary
// falls between an edges-array read and its paired vertex-data access.
const (
	stOffsets0 = iota // emit offsets[v]
	stOffsets1        // emit offsets[v+1]
	stEdges           // emit (edges[ei], data) pairs
	stEdgeData        // emit the data access paired with edges[ei]
	stOwn             // emit the own-data access, advance v
)

func newBulkIter(g graph.Topology, l Layout, dir Direction, r graph.Range) *bulkIter {
	it := &bulkIter{l: l, dir: dir, r: r, v: r.Lo}
	it.cur = g.Rows(dir == Pull, r.Lo, r.Hi)
	if r.Lo >= r.Hi || !it.nextSpan() {
		it.done = true
	}
	return it
}

// nextSpan pulls the next contiguous span from the row cursor. It
// returns false when the cursor is exhausted.
func (it *bulkIter) nextSpan() bool {
	base, off, adj, ok := it.cur.Next()
	if !ok || len(off) < 2 {
		return false
	}
	it.base, it.off, it.adj = base, off, adj
	it.adjBase = off[0]
	it.spanHi = base + uint32(len(off)) - 1
	return true
}

// loadVertex positions ei/hi on it.v's row, advancing to the next span
// when the current one is exhausted. It returns false (and marks the
// iterator done) if no span covers it.v — a cursor-contract violation
// that can only mean a representation bug; ending the stream early is
// the safe response.
func (it *bulkIter) loadVertex() bool {
	for it.v >= it.spanHi {
		if !it.nextSpan() {
			it.done = true
			return false
		}
	}
	rel := it.v - it.base
	it.ei = it.off[rel]
	it.hi = it.off[rel+1]
	return true
}

// fill writes the partition's next accesses into b at positions [n, end),
// resuming exactly where the previous call stopped, and returns the
// position after the last access written: end, unless the partition's
// stream ends first. It adds the edges-array reads it writes to
// b.EdgeReads. It stores only the true write flags, so b.Writes[n:end]
// must be all false on entry. The record columns are written only when
// records is set; that test is hoisted out of the edge-pair loop, like the
// direction test, so the column-only loop carries no per-access branch.
func (it *bulkIter) fill(b *Block, n, end int, records bool) int {
	if it.done {
		return n
	}
	l := it.l
	adj := it.adj
	adjBase := it.adjBase
	push := it.dir == Push
	addrs, writes := b.Addrs[:end], b.Writes[:end]
	// randKind/ownKind are the kinds of the neighbour-data access in the
	// edges loop and of the own-data access that ends each vertex.
	randKind, ownKind := KindVertexRead, KindVertexWrite
	if push {
		randKind, ownKind = KindVertexWrite, KindVertexRead
	}
	for n < len(addrs) {
		switch it.st {
		case stOffsets0:
			if !it.loadVertex() {
				return n
			}
			adj = it.adj
			adjBase = it.adjBase
			addrs[n] = l.OffsetsAddr(it.v)
			if records {
				b.setRecord(n, KindOffsets, it.v, it.v)
			}
			n++
			it.st = stOffsets1
		case stOffsets1:
			addrs[n] = l.OffsetsAddr(it.v + 1)
			if records {
				b.setRecord(n, KindOffsets, it.v, it.v)
			}
			n++
			it.st = stEdges
		case stEdges:
			// Emit full (edges read, vertex-data access) pairs while both
			// edges and room remain.
			pairs := uint64(len(addrs)-n) / 2
			if left := it.hi - it.ei; left < pairs {
				pairs = left
			}
			n0, ei0, eiEnd := n, it.ei, it.ei+pairs
			if push {
				for ei := ei0; ei < eiEnd; ei++ {
					addrs[n] = l.EdgeAddr(ei)
					addrs[n+1] = l.NewDataAddr(adj[ei-adjBase])
					writes[n+1] = true
					n += 2
				}
			} else {
				for ei := ei0; ei < eiEnd; ei++ {
					addrs[n] = l.EdgeAddr(ei)
					addrs[n+1] = l.OldDataAddr(adj[ei-adjBase])
					n += 2
				}
			}
			it.ei = eiEnd
			if records {
				v := it.v
				for j, ei := n0, ei0; j < n; j, ei = j+2, ei+1 {
					b.setRecord(j, KindEdges, v, v)
					b.setRecord(j+1, randKind, adj[ei-adjBase], v)
				}
			}
			b.EdgeReads += int(pairs)
			if it.ei == it.hi {
				it.st = stOwn
			} else if n == len(addrs)-1 {
				// One slot left: emit the edges read alone and resume with
				// its paired data access next call.
				addrs[n] = l.EdgeAddr(it.ei)
				if records {
					b.setRecord(n, KindEdges, it.v, it.v)
				}
				n++
				b.EdgeReads++
				it.st = stEdgeData
			}
			// n == end: block full, resume at stEdges.
		case stEdgeData:
			u := adj[it.ei-adjBase]
			if push {
				addrs[n] = l.NewDataAddr(u)
				writes[n] = true
			} else {
				addrs[n] = l.OldDataAddr(u)
			}
			if records {
				b.setRecord(n, randKind, u, it.v)
			}
			n++
			it.ei++
			if it.ei == it.hi {
				it.st = stOwn
			} else {
				it.st = stEdges
			}
		case stOwn:
			// End of vertex: pull/push-read write their own Di+1[v]; push
			// reads its own Di[v].
			if push {
				addrs[n] = l.OldDataAddr(it.v)
			} else {
				addrs[n] = l.NewDataAddr(it.v)
				writes[n] = true
			}
			if records {
				b.setRecord(n, ownKind, it.v, it.v)
			}
			n++
			it.v++
			it.st = stOffsets0
			if it.v >= it.r.Hi {
				it.done = true
				return n
			}
		}
	}
	return n
}
