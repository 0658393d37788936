package reorder

import (
	"context"
	"math"
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
// starts from the vertex with the maximum degree, and when every unplaced
// vertex scores 0 the next is the unplaced vertex of highest total degree
// (lowest ID on ties). The paper uses the default window size 5.
//
// Scores change by ±1 as vertices enter and leave the window, so the
// priority queue is GOrder's "unit heap": one bucket list per score
// value. A placed v changes the Ss score of every out-neighbour of each of
// its in-neighbours, so the total work is O(Σ_u d_out(u)²) score changes —
// inherently heavy on hubby graphs, which is exactly the preprocessing
// cost the paper's Table II shows for GOrder.
//
// Each placement slides the window in one batch and one walk of the
// graph: the oldest vertex leaves and v enters, and the heap sums the
// changes of both before it moves any vertex between buckets (see slide).
// Ties break exactly as they would if every single change moved its
// vertex.
//
// With HubCap set, the scores leave out every in-neighbour u with
// d_out(u) above the cap: u adds no Ss term to the vertices it shares
// with the window and no Sn term for its own edge into the window. The
// few hubs over a cap of √|V| carry almost all of the Σ_u d_out(u)²
// work on social graphs; on a graph with no vertex over the cap the
// permutation is exactly the uncapped one.
type GOrder struct {
	// Window is the sliding-window size (default 5).
	Window int
	// HubCap leaves out of the scores every in-neighbour with more than
	// ⌊√|V|⌋ out-edges, the paper's hub threshold.
	HubCap bool
	// PollEvery is the cooperative-cancellation granularity of Reorder,
	// in vertex placements (0 = every placement: one placement can walk
	// a hub's whole neighbourhood, so GOrder polls finer than the
	// runctl.DefaultPollInterval of the per-step loops).
	PollEvery int
}

// defaultWindow is the paper's GOrder window size, used when Window < 1.
const defaultWindow = 5

// windowParams returns the window parameter of a windowed algorithm,
// none at the default window (which w < 1 also selects).
func windowParams(w int) []Param {
	if w < 1 || w == defaultWindow {
		return nil
	}
	return []Param{{OptWindow, strconv.Itoa(w)}}
}

// Name implements Algorithm. The capped form and every window get a name
// of their own, so their table columns and run stages never merge.
func (o *GOrder) Name() string {
	base := "GO"
	if o.HubCap {
		base = "GO-HC"
	}
	return displayName(base, windowParams(o.Window)...)
}

// Spec implements Algorithm.
func (o *GOrder) Spec() string {
	params := windowParams(o.Window)
	if o.HubCap {
		params = append(params, Param{OptHubCap, "sqrt"})
	}
	return specOf("go", params...)
}

// hubCap returns the out-degree above which an in-neighbour of g is left
// out of the scores.
func (o *GOrder) hubCap(g *graph.Graph) uint64 {
	if o.HubCap {
		return uint64(math.Sqrt(float64(g.NumVertices())))
	}
	return math.MaxUint64
}

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
	sl := newSlide(g, h, o.hubCap(g))

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
// in-neighbour with x). Each score change goes to the unit heap's batch,
// which moves every changed vertex once, at its last change.
//
// The out-rows walked are a copy of the graph's from which each walk
// drops the placed vertices as it meets them, keeping the rest in order.
// The heap ignores changes to placed vertices anyway, so a walk yields the
// changes a walk of the graph's row would; it only skips the vertices
// GOrder has already placed, which are most of a hub's row by the time
// its later out-neighbours are placed.
//
// An in-neighbour u of both the leaving and the entering vertex would
// have its row walked twice: with −1 for the leaving vertex, then with +1
// for the entering one. Nothing is placed between the two walks, so both
// meet the same live row, and every change the first makes to a vertex
// is followed by the second's change to that same vertex; the same holds
// for the change to u itself. The first walk therefore moves nothing and
// decides no last change, and slide skips it: it carries u's −1 as a
// pending delta into u's entering walk, which then still changes (by a
// net 0, say) and so moves every vertex it reaches. Counting the pending
// delta per occurrence keeps duplicate in-neighbours exact.
//
// In-neighbours with more than cap out-edges are skipped outright, with
// their own Sn change and their row (see GOrder.HubCap).
type slide struct {
	g   *graph.Graph
	h   *unitHeap
	off []uint64 // row u of adj starts at off[u]; the graph's row ends at off[u+1]
	end []uint64 // and ends at end[u]
	adj []uint32
	cap uint64 // in-neighbours with more out-edges are skipped
	// in[u].epoch == epoch marks u as an in-neighbour of the entering
	// vertex; in[u].pending is the delta its skipped leaving walks carry.
	in    []inMark
	epoch uint32
}

type inMark struct {
	epoch   uint32
	pending int32
}

func newSlide(g *graph.Graph, h *unitHeap, hubCap uint64) *slide {
	off := g.OutOffsets()
	return &slide{g: g, h: h, off: off, end: slices.Clone(off[1:]), adj: slices.Clone(g.OutEdges()),
		cap: hubCap, in: make([]inMark, g.NumVertices())}
}

// run slides the window: oldest (graph.NoVertex while the window fills)
// leaves and v, already removed from the heap, enters.
func (s *slide) run(oldest, v uint32) {
	ins := s.g.InNeighbors(v)
	if oldest != graph.NoVertex {
		s.epoch++
		for _, u := range ins {
			s.in[u].epoch = s.epoch
		}
		s.visit(oldest, -1)
		for _, u := range s.g.InNeighbors(oldest) {
			if s.hub(u) {
				continue
			}
			if s.in[u].epoch == s.epoch {
				s.in[u].pending--
				continue
			}
			s.h.change(u, -1)
			s.visit(u, -1)
		}
	}
	s.visit(v, +1)
	for _, u := range ins {
		if s.hub(u) {
			continue
		}
		d := 1 + s.in[u].pending
		s.in[u].pending = 0
		s.h.change(u, d)
		s.visit(u, d)
	}
	s.h.apply()
}

// hub reports whether u has more out-edges than the cap.
func (s *slide) hub(u uint32) bool { return s.off[u+1]-s.off[u] > s.cap }

// visit changes the key of every unplaced out-neighbour of u by d and
// drops the placed ones from u's row.
func (s *slide) visit(u uint32, d int32) {
	lo := s.off[u]
	row := s.adj[lo:s.end[u]]
	node, log := s.h.node, s.h.log
	k := 0
	for _, t := range row {
		x := &node[t]
		if x.key < 0 {
			continue
		}
		row[k] = t
		k++
		log = append(log, t)
		x.delta += d
		x.last = uint32(len(log))
	}
	s.h.log = log
	s.end[u] = lo + uint64(k)
}

// unitHeap is a bucket priority queue over vertices with small integer
// keys: bucket b holds all vertices with key b as a doubly-linked list,
// most recently moved first.
//
// Key changes come in batches. change records one change of a batch in
// the change log: it sums the change into the vertex's delta and notes
// the log index of its last change. apply then moves every changed
// vertex once, in log order at its last change, to the head of the
// bucket of its new key — also when its changes cancel out. A list holds
// its vertices by last move, newest first, so it ends up exactly as if
// each single change had moved its vertex to the head of its bucket.
//
// The lists run through sentinel nodes stored after the vertices: a
// none node, at which the links of a vertex in no list and the last
// link of every list end, then one head per bucket. Unlinking and
// pushing then write through the links without testing them; what they
// write into the none node is never read.
//
// change and remove are O(1), apply is O(changes); extractMax is O(1)
// amortized over the key increases.
type unitHeap struct {
	node   []uhNode // the vertices, then the none node, then the bucket heads
	none   int32    // index of the none node
	maxKey int32    // upper bound on the largest non-empty bucket ≥ 1
	log    []uint32 // the batch's changed vertices, one entry per change
}

// uhNode is one vertex's heap state, kept together so that a change
// touches one place.
type uhNode struct {
	key        int32  // -1 once removed
	prev, next int32  // bucket list links
	delta      int32  // the sum of the batch's changes
	last       uint32 // 1-based log index of the batch's last change (apply checks the log stays below 2³²)
}

func newUnitHeap(n uint32) *unitHeap {
	h := &unitHeap{node: make([]uhNode, n+1), none: int32(n)}
	// Every vertex starts with key 0, in no list; bucket 0 is never
	// extracted (only positive scores are frontier candidates).
	for i := range h.node {
		h.node[i].prev = h.none
		h.node[i].next = h.none
	}
	return h
}

// removed reports whether v has been extracted/removed.
func (h *unitHeap) removed(v uint32) bool { return h.node[v].key < 0 }

// change records a change of d to v's key. Removed vertices are ignored.
func (h *unitHeap) change(v uint32, d int32) {
	x := &h.node[v]
	if x.key < 0 {
		return
	}
	h.log = append(h.log, v)
	x.delta += d
	x.last = uint32(len(h.log))
}

// apply ends the batch: in log order, it moves each vertex at its last
// change.
func (h *unitHeap) apply() {
	if uint64(len(h.log)) > math.MaxUint32 {
		// uhNode.last has wrapped, so the last changes are unknown.
		panic("reorder: a GOrder window slide made 2³² or more score changes")
	}
	// Keep the last changes first, without a branch on which they are,
	// then move them.
	k := 0
	for i, v := range h.log {
		h.log[k] = v
		last := 0
		if h.node[v].last == uint32(i+1) {
			last = 1
		}
		k += last
	}
	for _, v := range h.log[:k] {
		h.move(v)
	}
	h.log = h.log[:0]
}

// move applies v's summed change and puts v at the head of the bucket of
// its new key.
func (h *unitHeap) move(v uint32) {
	k := h.node[v].key + h.node[v].delta
	hd := h.none + 1 + k
	for int(hd) >= len(h.node) {
		h.node = append(h.node, uhNode{prev: h.none, next: h.none})
	}
	h.unlink(v)
	x := &h.node[v]
	x.key, x.delta = k, 0
	old := h.node[hd].next
	h.node[hd].next = int32(v)
	x.prev, x.next = hd, old
	h.node[old].prev = int32(v)
	h.maxKey = max(h.maxKey, k)
}

// unlink removes v from its bucket list, if any.
func (h *unitHeap) unlink(v uint32) {
	x := &h.node[v]
	h.node[x.prev].next = x.next
	h.node[x.next].prev = x.prev
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
		if v := h.node[h.none+1+h.maxKey].next; v != h.none {
			h.remove(uint32(v))
			return uint32(v), true
		}
		h.maxKey--
	}
	return 0, false
}
