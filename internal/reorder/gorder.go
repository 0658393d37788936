package reorder

import (
	"context"
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
// priority queue is GOrder's "unit heap": one doubly-linked bucket list
// per score value with O(1) increment, decrement and extract-max. The
// total work is O(Σ_u d_out(u)·d_in(u)) score updates — inherently heavy
// on hubby graphs, which is exactly the preprocessing cost the paper's
// Table II shows for GOrder.
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

	// Seed order: by descending total degree; used to start and to re-seed
	// when the frontier empties (disconnected graphs).
	seeds := graph.VerticesByDegreeDesc(g.TotalDegrees())
	nextSeed := 0

	window := make([]uint32, 0, w)

	// adjustFor applies ±1 to the scores of all unplaced vertices whose
	// score against vertex v changes when v enters/leaves the window:
	// out- and in-neighbours of v (Sn), and out-neighbours of v's
	// in-neighbours (Ss — they share that in-neighbour with v).
	adjustFor := func(v uint32, inc bool) {
		for _, u := range g.OutNeighbors(v) {
			h.adjust(u, inc)
		}
		for _, u := range g.InNeighbors(v) {
			h.adjust(u, inc)
			for _, s := range g.OutNeighbors(u) {
				if s != v {
					h.adjust(s, inc)
				}
			}
		}
	}

	place := func(v uint32) {
		h.remove(v)
		order = append(order, v)
		if len(window) == w {
			oldest := window[0]
			window = window[1:]
			adjustFor(oldest, false)
		}
		window = append(window, v)
		adjustFor(v, true)
	}

	for uint32(len(order)) < n {
		if err := poll.Check(); err != nil {
			// Complete the permutation with the unplaced vertices in
			// original order so callers receive a usable partial result.
			placed := make([]bool, n)
			for _, v := range order {
				placed[v] = true
			}
			for v := uint32(0); v < n; v++ {
				if !placed[v] {
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
		}
		place(v)
	}
	return orderToPerm(order), nil
}

// unitHeap is a bucket priority queue over vertices with small integer
// keys that change by ±1: bucket b holds all vertices with key b as a
// doubly-linked list. All operations are O(1) (extractMax amortized).
type unitHeap struct {
	key        []int32
	prev, next []int32 // linked list pointers; -1 terminates
	head       []int32 // head[b] = first vertex with key b, or -1
	maxKey     int32   // upper bound on the largest non-empty bucket ≥ 1
}

const uhNil = int32(-1)

func newUnitHeap(n uint32) *unitHeap {
	h := &unitHeap{
		key:  make([]int32, n),
		prev: make([]int32, n),
		next: make([]int32, n),
		head: []int32{uhNil, uhNil},
	}
	// All vertices start in bucket 0; bucket 0 is never extracted (only
	// positive scores are frontier candidates), so the zero bucket list
	// is left unmaterialized: vertices with key 0 are tracked lazily.
	for i := range h.prev {
		h.prev[i] = uhNil
		h.next[i] = uhNil
	}
	return h
}

// removed reports whether v has been extracted/removed.
func (h *unitHeap) removed(v uint32) bool { return h.key[v] < 0 }

// unlink removes v from its current bucket list (no-op for bucket 0,
// which is unmaterialized).
func (h *unitHeap) unlink(v uint32) {
	k := h.key[v]
	if k <= 0 {
		return
	}
	p, nx := h.prev[v], h.next[v]
	if p != uhNil {
		h.next[p] = nx
	} else {
		h.head[k] = nx
	}
	if nx != uhNil {
		h.prev[nx] = p
	}
	h.prev[v] = uhNil
	h.next[v] = uhNil
}

// push adds v to bucket k (k ≥ 1).
func (h *unitHeap) push(v uint32, k int32) {
	for int(k) >= len(h.head) {
		h.head = append(h.head, uhNil)
	}
	old := h.head[k]
	h.head[k] = int32(v)
	h.prev[v] = uhNil
	h.next[v] = old
	if old != uhNil {
		h.prev[old] = int32(v)
	}
	if k > h.maxKey {
		h.maxKey = k
	}
}

// adjust applies ±1 to v's key, maintaining the bucket lists. Removed
// vertices are ignored.
func (h *unitHeap) adjust(v uint32, inc bool) {
	k := h.key[v]
	if k < 0 {
		return
	}
	h.unlink(v)
	if inc {
		k++
	} else {
		k--
	}
	h.key[v] = k
	if k > 0 {
		h.push(v, k)
	}
}

// remove extracts v regardless of its key (used when placing a vertex).
func (h *unitHeap) remove(v uint32) {
	if h.key[v] < 0 {
		return
	}
	h.unlink(v)
	h.key[v] = -1
}

// extractMax removes and returns a vertex with the maximum positive key.
func (h *unitHeap) extractMax() (uint32, bool) {
	for h.maxKey >= 1 {
		if v := h.head[h.maxKey]; v != uhNil {
			u := uint32(v)
			h.unlink(u)
			h.key[u] = -1
			return u, true
		}
		h.maxKey--
	}
	return 0, false
}
