package core

import (
	"graphlocality/internal/graph"
	"graphlocality/internal/trace"
)

// TypeProfile classifies the cache-line reuses of the random vertex-data
// accesses of an SpMV traversal into the paper's locality types (§IV-D):
//
//   - Type I: spatial reuse between *consecutive neighbours of the same
//     vertex* — the line of Di[u] is reused by the next neighbour u' of
//     the same destination vertex.
//   - Type II: temporal reuse of the *same vertex's data* by a later
//     destination vertex (common neighbours of nearby vertices).
//   - Type III: spatio-temporal reuse — the line is reused by a later
//     destination vertex through a *different* vertex's data sharing the
//     line.
//   - Type IV: like II, but the previous use of the line came from a
//     *different thread* — the reuse happens through the shared cache
//     (only in parallel profiles).
//   - Type V: like III across threads (only in parallel profiles).
//
// Types IV and V depend on partitioning and scheduling rather than on the
// reordering algorithm (§IV-D), which ClassifyLocalityTypes makes
// measurable with more than one thread.
type TypeProfile struct {
	TypeI   uint64
	TypeII  uint64
	TypeIII uint64
	TypeIV  uint64
	TypeV   uint64
	Cold    uint64 // first touch of a line
	Total   uint64 // all random vertex-data accesses
}

// ClassifyLocalityTypes runs a pull traversal of threads interleaved
// threads (interval accesses each per turn) and classifies every random
// vertex-data read by the reuse relationship to the previous access of its
// cache line. Accesses are attributed to threads by the edge-balanced
// partition of the destination vertex, and a reuse whose previous line use
// came from another thread counts as type IV (same data element) or type V
// (different element, same line); one thread gives the serial profile,
// with no type IV or V. It is an analysis tool, not a cache simulation:
// every line reuse is counted regardless of whether a finite cache would
// have retained it.
func ClassifyLocalityTypes(g *graph.Graph, lineSize, threads, interval int) TypeProfile {
	threadOf := make([]uint8, g.NumVertices())
	for t, r := range g.PartitionEdgeBalancedIn(threads) {
		for v := r.Lo; v < r.Hi; v++ {
			threadOf[v] = uint8(t)
		}
	}
	classifier := newTypeClassifier(g.NumVertices(), lineSize, threadOf)
	s := trace.Whole(g, trace.Pull)
	s.Threads, s.Interval = threads, interval
	trace.Run(g, trace.NewLayout(g), s, classifier.observe)
	return classifier.profile
}

// typeClassifier holds the classification state of one profile.
type typeClassifier struct {
	profile    TypeProfile
	lineSize   uint64
	seenVertex []bool
	last       map[uint64]lastUse
	threadOf   []uint8
}

type lastUse struct {
	dest   uint32 // destination vertex being processed at last use
	thread uint8
}

func newTypeClassifier(n uint32, lineSize int, threadOf []uint8) *typeClassifier {
	return &typeClassifier{
		lineSize:   uint64(lineSize),
		seenVertex: make([]bool, n),
		last:       make(map[uint64]lastUse),
		threadOf:   threadOf,
	}
}

// observe classifies one access. It never stops the stream, so it serves
// directly as a trace.BoundedSink.
func (c *typeClassifier) observe(a trace.Access) bool {
	if a.Kind != trace.KindVertexRead {
		return true
	}
	curDest := a.Dest
	curThread := c.threadOf[curDest]
	c.profile.Total++
	line := a.Addr / c.lineSize
	lu, ok := c.last[line]
	crossThread := ok && lu.thread != curThread
	switch {
	case !ok:
		c.profile.Cold++
	case crossThread && c.seenVertex[a.Vertex]:
		c.profile.TypeIV++
	case crossThread:
		c.profile.TypeV++
	case lu.dest == curDest:
		// Reuse within the same destination vertex's neighbour loop:
		// spatial locality between consecutive neighbours.
		c.profile.TypeI++
	case c.seenVertex[a.Vertex]:
		// The same vertex's data element is being reused by a later
		// destination vertex.
		c.profile.TypeII++
	default:
		// The line is live but this element is fresh: spatio-temporal
		// reuse through a line-sharing neighbour.
		c.profile.TypeIII++
	}
	c.last[line] = lastUse{dest: curDest, thread: curThread}
	c.seenVertex[a.Vertex] = true
	return true
}
