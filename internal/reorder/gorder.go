package reorder

import (
	"context"
	"slices"
	"strconv"

	"graphlocality/internal/graph"
	"graphlocality/internal/runctl"
)

// GOrder implements the GOrder reordering (Wei, Yu, Lu & Lin, SIGMOD'16)
// as the paper describes it (§IV-C): vertices are placed one at a time;
// the next vertex is the one with the maximum score against a sliding
// window of the last W placed vertices, where the score between u and v is
//
//	S(u,v) = Ss(u,v) + Sn(u,v)
//
// with Ss the number of common in-neighbours (sibling score) and Sn the
// number of direct edges between u and v (neighbourhood score). Placement
// starts from the vertex with the maximum degree. The paper uses the
// default window size 5.
//
// Scores change by ±1 as vertices enter and leave the window, so the
// priority queue is GOrder's "unit heap": one bucket list per score
// value. A placed v changes the Ss score of every out-neighbour of each of
// its in-neighbours, so the total work is O(Σ_u d_out(u)²) score changes —
// inherently heavy on hubby graphs, which is exactly the preprocessing
// cost the paper's Table II shows for GOrder.
//
// Each placement slides the window in one batch: the oldest vertex leaves
// and v enters, and the heap sums the changes of both before it moves any
// vertex between buckets, skipping the vertices already placed (see
// slide). Ties break exactly as they would if every single change moved
// its vertex.
type GOrder struct {
	// Window is the sliding-window size (default 5).
	Window int
	// PollEvery is the cooperative-cancellation granularity of Reorder,
	// in vertex placements (0 = runctl.DefaultPollInterval).
	PollEvery int
}

func init() {
	MustRegister(Registration{
		Name:        "go",
		Aliases:     []string{"gorder"},
		Description: "GOrder: sliding-window sibling/neighbour score maximization (SIGMOD'16)",
		Class:       ClassHeavy,
		Accepts:     []string{OptWindow},
		New: func(p Params) (Algorithm, error) {
			w, err := p.Window()
			return &GOrder{Window: w}, err
		},
	})
}

// defaultWindow is the paper's GOrder window size, used when Window < 1.
const defaultWindow = 5

// windowSpec is the canonical spec of a windowed algorithm: name alone at
// the default window (which Window < 1 also selects).
func windowSpec(name string, w int) string {
	if w < 1 || w == defaultWindow {
		return name
	}
	return name + ":window=" + strconv.Itoa(w)
}

// Name implements Algorithm.
func (o *GOrder) Name() string { return "GO" }

// Spec implements Algorithm.
func (o *GOrder) Spec() string { return windowSpec("go", o.Window) }

// Reorder implements Algorithm: the placement loop polls ctx every
// PollEvery placements. On cancellation the not-yet-placed vertices keep
// their original relative order after the placed prefix, so the partial
// permutation is still a valid relabeling. GOrder's configuration is
// read-only during a run, so one instance may reorder concurrently.
func (o *GOrder) Reorder(ctx context.Context, g *graph.Graph) (graph.Permutation, error) {
	w := o.Window
	if w < 1 {
		w = defaultWindow
	}
	n := g.NumVertices()
	order := make([]uint32, 0, n)
	if n == 0 {
		return orderToPerm(order), nil
	}
	poll := runctl.NewPoller(ctx, o.PollEvery)

	h := newUnitHeap(n)
	sl := newSlide(g, h)

	// Seed order: by descending total degree; used to start and to re-seed
	// when the frontier empties (disconnected graphs).
	seeds := graph.VerticesByDegreeDesc(g.TotalDegrees())
	nextSeed := 0

	for uint32(len(order)) < n {
		if err := poll.Check(); err != nil {
			// Complete the permutation with the unplaced vertices in
			// original order so callers receive a usable partial result.
			for v := uint32(0); v < n; v++ {
				if !h.removed(v) {
					order = append(order, v)
				}
			}
			return orderToPerm(order), err
		}
		v, ok := h.extractMax()
		if !ok {
			// Frontier exhausted: re-seed with the highest-degree
			// unplaced vertex.
			for h.removed(seeds[nextSeed]) {
				nextSeed++
			}
			v = seeds[nextSeed]
			h.remove(v)
		}
		order = append(order, v)
		// The window is the last w placed vertices: once it is full, the
		// oldest leaves as v enters.
		oldest := graph.NoVertex
		if len(order) > w {
			oldest = order[len(order)-1-w]
		}
		sl.run(oldest, v)
	}
	return orderToPerm(order), nil
}

// slide moves GOrder's window one vertex on. It walks, for the leaving
// and for the entering vertex x, every vertex whose score against x
// depends on x being in the window: x's out- and in-neighbours (Sn) and
// the out-neighbours of its in-neighbours (Ss: they share that
// in-neighbour with x). The first walk records each score change in the
// unit heap, the second replays the same changes in the same order so the
// heap can move each changed vertex at its last change.
//
// The out-rows walked are a copy of the graph's from which the first walk
// drops the placed vertices as it meets them, keeping the rest in order.
// The heap ignores changes to placed vertices anyway, so a walk yields the
// changes a walk of the graph's row would; it only skips the vertices
// GOrder has already placed, which are most of a hub's row by the time
// its later out-neighbours are placed. Nothing is placed between the two
// walks, so the second meets exactly the rows the first left.
type slide struct {
	g   *graph.Graph
	h   *unitHeap
	off []uint64 // row u of adj starts at off[u]
	end []uint64 // and ends at end[u]
	adj []uint32
}

func newSlide(g *graph.Graph, h *unitHeap) *slide {
	off := g.OutOffsets()
	return &slide{g: g, h: h, off: off, end: slices.Clone(off[1:]), adj: slices.Clone(g.OutEdges())}
}

// run slides the window: oldest (graph.NoVertex while the window fills)
// leaves and v, already removed from the heap, enters.
func (s *slide) run(oldest, v uint32) {
	if oldest != graph.NoVertex {
		s.record(oldest, -1)
	}
	s.record(v, +1)
	if oldest != graph.NoVertex {
		s.replay(oldest)
	}
	s.replay(v)
	s.h.settled()
}

// record records a change of d for every vertex whose score against x
// depends on x being in the window. x itself is placed, so the heap
// ignores it.
func (s *slide) record(x uint32, d int32) {
	for _, t := range s.liveRow(x) {
		s.h.add(t, d)
	}
	for _, u := range s.g.InNeighbors(x) {
		s.h.add(u, d)
		for _, t := range s.liveRow(u) {
			s.h.add(t, d)
		}
	}
}

// replay walks the changes record(x, d) recorded, in the same order.
// The rows hold no placed vertex any more.
func (s *slide) replay(x uint32) {
	for _, t := range s.row(x) {
		s.h.replay(t)
	}
	for _, u := range s.g.InNeighbors(x) {
		if !s.h.removed(u) {
			s.h.replay(u)
		}
		for _, t := range s.row(u) {
			s.h.replay(t)
		}
	}
}

// row returns u's out-neighbours not yet dropped.
func (s *slide) row(u uint32) []uint32 { return s.adj[s.off[u]:s.end[u]] }

// liveRow drops the placed vertices from u's row and returns the rest.
func (s *slide) liveRow(u uint32) []uint32 {
	row := s.row(u)
	k := 0
	for _, t := range row {
		if !s.h.removed(t) {
			row[k] = t
			k++
		}
	}
	s.end[u] = s.off[u] + uint64(k)
	return row[:k]
}

// unitHeap is a bucket priority queue over vertices with small integer
// keys: bucket b holds all vertices with key b ≥ 1 as a doubly-linked
// list, most recently moved first.
//
// Key changes come in batches. add records each change of a batch; then
// replay is called for the same changes to unremoved vertices, in the
// same order, and moves every changed vertex once, at its last change, to
// the head of the bucket of its new key — also when its changes cancel
// out; settled ends the batch. A list holds its vertices by last move,
// newest first, so it ends up exactly as if each single change had moved
// its vertex to the head of its bucket.
//
// add, replay and remove are O(1); extractMax is O(1) amortized over the
// key increases.
type unitHeap struct {
	node   []uhNode
	head   []int32 // head[b] = first vertex with key b, or uhNil
	maxKey int32   // upper bound on the largest non-empty bucket ≥ 1
	// added and replayed count the batch's changes passed to add and to
	// replay.
	added, replayed uint64
}

// uhNode is one vertex's heap state, kept together so that a change
// touches one place.
type uhNode struct {
	key        int32  // -1 once removed
	prev, next int32  // bucket list links; uhNil terminates
	delta      int32  // the sum of the batch's changes
	last       uint64 // 1-based index in the batch of the last change
}

const uhNil = int32(-1)

func newUnitHeap(n uint32) *unitHeap {
	h := &unitHeap{
		node: make([]uhNode, n),
		head: []int32{uhNil, uhNil},
	}
	// All vertices start in bucket 0; bucket 0 is never extracted (only
	// positive scores are frontier candidates), so the zero bucket list
	// is left unmaterialized: vertices with key 0 are tracked lazily.
	for i := range h.node {
		h.node[i].prev = uhNil
		h.node[i].next = uhNil
	}
	return h
}

// removed reports whether v has been extracted/removed.
func (h *unitHeap) removed(v uint32) bool { return h.node[v].key < 0 }

// add records a change of d to v's key. Removed vertices are ignored.
func (h *unitHeap) add(v uint32, d int32) {
	x := &h.node[v]
	if x.key < 0 {
		return
	}
	h.added++
	x.delta += d
	x.last = h.added
}

// replay passes the batch's changes to unremoved vertices again, in
// order; at v's last change it moves v.
func (h *unitHeap) replay(v uint32) {
	h.replayed++
	if h.node[v].last == h.replayed {
		h.move(v)
	}
}

// move applies v's summed change and puts v at the head of the bucket of
// its new key, if that is positive.
func (h *unitHeap) move(v uint32) {
	h.unlink(v)
	x := &h.node[v]
	x.key += x.delta
	x.delta = 0
	if x.key > 0 {
		h.push(v, x.key)
	}
}

// settled ends a batch whose changes have all been replayed.
func (h *unitHeap) settled() {
	h.added, h.replayed = 0, 0
}

// unlink removes v from its current bucket list (no-op for bucket 0,
// which is unmaterialized).
func (h *unitHeap) unlink(v uint32) {
	x := &h.node[v]
	if x.key <= 0 {
		return
	}
	if x.prev != uhNil {
		h.node[x.prev].next = x.next
	} else {
		h.head[x.key] = x.next
	}
	if x.next != uhNil {
		h.node[x.next].prev = x.prev
	}
	x.prev = uhNil
	x.next = uhNil
}

// push adds v to the head of bucket k (k ≥ 1).
func (h *unitHeap) push(v uint32, k int32) {
	for int(k) >= len(h.head) {
		h.head = append(h.head, uhNil)
	}
	old := h.head[k]
	h.head[k] = int32(v)
	h.node[v].prev = uhNil
	h.node[v].next = old
	if old != uhNil {
		h.node[old].prev = int32(v)
	}
	if k > h.maxKey {
		h.maxKey = k
	}
}

// remove extracts v regardless of its key (used when placing a vertex).
func (h *unitHeap) remove(v uint32) {
	if h.node[v].key < 0 {
		return
	}
	h.unlink(v)
	h.node[v].key = -1
}

// extractMax removes and returns a vertex with the maximum positive key.
func (h *unitHeap) extractMax() (uint32, bool) {
	for h.maxKey >= 1 {
		if v := h.head[h.maxKey]; v != uhNil {
			u := uint32(v)
			h.remove(u)
			return u, true
		}
		h.maxKey--
	}
	return 0, false
}
