package trace

import (
	"fmt"
	"math"

	"graphlocality/internal/graph"
)

// Direction selects the traversal direction of Algorithm 1.
type Direction int

const (
	// Pull iterates destination vertices over the CSC, randomly *reading*
	// in-neighbours' old data (the paper's primary configuration).
	Pull Direction = iota
	// Push iterates source vertices over the CSR, randomly *writing*
	// out-neighbours' new data.
	Push
	// PushRead iterates source vertices over the CSR but performs the same
	// read operation as Pull (sum of out-neighbours' data). This is the
	// "CSR read traversal" of Table VI, which isolates the effect of the
	// format from the effect of read-vs-write.
	PushRead
)

// String names the direction by the name ParseDirection accepts.
func (d Direction) String() string {
	switch d {
	case Pull:
		return "pull"
	case Push:
		return "push"
	case PushRead:
		return "pushread"
	}
	return "unknown"
}

// ParseDirection maps a direction's command-line and wire name: pull, push
// or pushread.
func ParseDirection(name string) (Direction, error) {
	switch name {
	case "pull":
		return Pull, nil
	case "push":
		return Push, nil
	case "pushread":
		return PushRead, nil
	}
	return Pull, fmt.Errorf("unknown direction %q (want pull, push or pushread)", name)
}

// Sink receives simulated accesses in program order.
type Sink func(Access)

// BoundedSink receives accesses and reports whether the traversal should
// continue; returning false stops the stream (cooperative cancellation).
type BoundedSink func(Access) bool

// Stream selects one SpMV access stream: the traversal direction, the
// vertices whose processing it covers, and the paper's two-phase parallel
// emulation (§V-B). With Threads > 1 the vertex set [0, |V|) is split into
// Threads edge-balanced partitions, each partition is clipped to Range and
// produces its own program-order stream, and the streams are interleaved
// round-robin in slices of Interval accesses — the order a shared
// last-level cache would see. With Threads <= 1 the stream is the program
// order of Range. Run and Generate take the same Stream, so they emit the
// same accesses in the same order.
type Stream struct {
	Dir Direction
	// Range is the vertices processed; Whole sets it to all of [0, |V|).
	Range graph.Range
	// Threads is the number of emulated threads (< 1 means 1).
	Threads int
	// Interval is the round-robin slice in accesses (< 1 means 1).
	Interval int
}

// Whole returns the single-threaded stream of one full SpMV iteration over
// g in direction dir. Set Threads and Interval on the result for the
// interleaved parallel stream.
func Whole(g graph.Dims, dir Direction) Stream {
	return Stream{Dir: dir, Range: graph.Range{Hi: g.NumVertices()}}
}

// partitions returns the per-thread vertex ranges of s over g.
func (s Stream) partitions(g graph.Topology) []graph.Range {
	if s.Threads <= 1 {
		return []graph.Range{s.Range}
	}
	parts := g.PartitionEdgeBalanced(s.Dir == Pull, s.Threads)
	for i, p := range parts {
		p.Lo, p.Hi = max(p.Lo, s.Range.Lo), min(p.Hi, s.Range.Hi)
		if p.Lo > p.Hi {
			p.Lo = p.Hi
		}
		parts[i] = p
	}
	return parts
}

// interleave runs the round-robin schedule of §V-B over n per-thread
// sources: in every round each live source, in index order, contributes up
// to quota accesses through emit(i, quota), which reports whether source i
// has accesses left and whether the consumer wants to continue. It is the
// one interleaver behind Run, Generate and Replay. It reports whether the
// schedule ran to completion.
func interleave(n, quota int, emit func(i, quota int) (more, ok bool)) bool {
	if quota < 1 {
		quota = 1
	}
	done := make([]bool, n)
	for live := n; live > 0; {
		live = 0
		for i := range done {
			if done[i] {
				continue
			}
			more, ok := emit(i, quota)
			if !ok {
				return false
			}
			if more {
				live++
			} else {
				done[i] = true
			}
		}
	}
	return true
}

// Run is the scalar driver: it emits s's access stream over g one access
// at a time, in order, and stops as soon as sink returns false. It reports
// whether the traversal ran to completion.
//
// Run computes each access from its index within the vertex being
// processed (vertexIter) and shares no generation code with Generate's
// bulk generator. That independence is what makes it the reference the
// block generator and the whole fast simulation path are tested against;
// analysis tools that want one record at a time use it too.
func Run(g *graph.Graph, l Layout, s Stream, sink BoundedSink) bool {
	parts := s.partitions(g)
	iters := make([]*vertexIter, len(parts))
	for i, r := range parts {
		iters[i] = newVertexIter(g, l, s.Dir, r)
	}
	quota := s.Interval
	if len(iters) == 1 {
		quota = math.MaxInt // one source: nothing to interleave
	}
	return interleave(len(iters), quota, func(i, quota int) (bool, bool) {
		it := iters[i]
		for k := 0; k < quota; k++ {
			a, ok := it.next()
			if !ok {
				break
			}
			if !sink(a) {
				return false, false
			}
		}
		return !it.done(), true
	})
}

// vertexIter generates one partition's access stream one access at a
// time, straight from Algorithm 1: processing vertex v issues 3 + 2·deg(v)
// accesses, numbered k = 0, 1, ...: the offsets[v] and offsets[v+1] reads,
// an (edges[e], neighbour-data) pair per edge e, and the own-data access.
// This is equivalent to the paper's per-thread access logs without
// materializing them.
type vertexIter struct {
	l     Layout
	dir   Direction
	off   []uint64
	adj   []uint32
	v, hi uint32 // current vertex, end of the partition
	k     uint64 // number of v's accesses already emitted
}

func newVertexIter(g *graph.Graph, l Layout, dir Direction, r graph.Range) *vertexIter {
	it := &vertexIter{l: l, dir: dir, off: g.OutOffsets(), adj: g.OutEdges(), v: r.Lo, hi: r.Hi}
	if dir == Pull {
		it.off, it.adj = g.InOffsets(), g.InEdges()
	}
	return it
}

func (it *vertexIter) done() bool { return it.v >= it.hi }

// next returns the next access of the partition's program order.
func (it *vertexIter) next() (Access, bool) {
	if it.done() {
		return Access{}, false
	}
	l, v, k := it.l, it.v, it.k
	first := it.off[v]
	n := 3 + 2*(it.off[v+1]-first)
	if it.k++; it.k == n {
		it.v, it.k = v+1, 0
	}
	push := it.dir == Push
	switch {
	case k < 2: // read offsets[v], offsets[v+1]
		return Access{Addr: l.OffsetsAddr(v + uint32(k)), Kind: KindOffsets, Vertex: v, Dest: v}, true
	case k == n-1: // end of vertex: pull/push-read write own Di+1[v]; push reads own Di[v]
		if push {
			return Access{Addr: l.OldDataAddr(v), Kind: KindVertexRead, Vertex: v, Dest: v}, true
		}
		return Access{Addr: l.NewDataAddr(v), Kind: KindVertexWrite, Write: true, Vertex: v, Dest: v}, true
	case k%2 == 0: // read edges[e]
		return Access{Addr: l.EdgeAddr(first + (k-2)/2), Kind: KindEdges, Vertex: v, Dest: v}, true
	}
	// The random vertex-data access paired with edges[e].
	u := it.adj[first+(k-3)/2]
	if push { // random write of the neighbour's new data
		return Access{Addr: l.NewDataAddr(u), Kind: KindVertexWrite, Write: true, Vertex: u, Dest: v}, true
	}
	return Access{Addr: l.OldDataAddr(u), Kind: KindVertexRead, Vertex: u, Dest: v}, true
}

// CountAccesses returns the exact number of accesses one full iteration
// generates (Whole, any Threads and Interval):
// per vertex two offsets reads and one own-data access, plus two accesses
// per edge (edges element + neighbour data).
func CountAccesses(g graph.Dims) uint64 {
	return 3*uint64(g.NumVertices()) + 2*g.NumEdges()
}
