package reorder

import (
	"testing"

	"graphlocality/internal/gen"
	"graphlocality/internal/graph"
)

// batch changes the key of each of vs by d, as one batch.
func batch(h *unitHeap, d int32, vs ...uint32) {
	for _, v := range vs {
		h.change(v, d)
	}
	h.apply()
}

func TestUnitHeapBasics(t *testing.T) {
	h := newUnitHeap(4)
	// Nothing extractable while all keys are 0 — in particular vertex 0
	// must not be spuriously reported (regression: zero-valued bucket
	// heads used to alias vertex 0).
	if v, ok := h.extractMax(); ok {
		t.Fatalf("empty heap extracted %d", v)
	}
	batch(h, 1, 2, 2, 1) // keys 2 and 1
	if v, ok := h.extractMax(); !ok || v != 2 {
		t.Fatalf("extractMax = %d,%v; want 2", v, ok)
	}
	if v, ok := h.extractMax(); !ok || v != 1 {
		t.Fatalf("extractMax = %d,%v; want 1", v, ok)
	}
	if _, ok := h.extractMax(); ok {
		t.Fatal("heap should be empty")
	}
	// Changes to removed vertices are ignored.
	batch(h, 1, 2)
	if _, ok := h.extractMax(); ok {
		t.Fatal("removed vertex resurrected")
	}
	// A change back to zero keeps the vertex alive but unextractable.
	batch(h, 1, 3)
	batch(h, -1, 3)
	if h.removed(3) {
		t.Fatal("vertex 3 wrongly removed")
	}
	if _, ok := h.extractMax(); ok {
		t.Fatal("zero-key vertex extracted")
	}
	h.remove(3)
	if !h.removed(3) {
		t.Fatal("remove failed")
	}
}

// TestUnitHeapBatchTieOrder checks a batch leaves each bucket as moving
// the vertex at every single change would: ordered by last change, newest
// first, with vertex 4, whose changes cancel, moved to the head too.
func TestUnitHeapBatchTieOrder(t *testing.T) {
	h := newUnitHeap(6)
	batch(h, 1, 4)
	changes := []struct {
		v uint32
		d int32
	}{{3, 1}, {5, 1}, {4, -1}, {4, 1}, {3, -1}, {3, 1}, {1, 1}, {1, 1}}
	for _, c := range changes {
		h.change(c.v, c.d)
	}
	h.apply()
	// One change at a time: [4], [3 4], [5 3 4], [5 3], [4 5 3], [4 5],
	// [3 4 5], and 1 alone in bucket 2.
	for _, want := range []uint32{1, 3, 4, 5} {
		if v, ok := h.extractMax(); !ok || v != want {
			t.Fatalf("extractMax = %d,%v; want %d", v, ok, want)
		}
	}
}

func TestGOrderStartsAtMaxDegree(t *testing.T) {
	g := gen.Star(100)
	perm := Perm(MustNew("go"), g)
	if perm[0] != 0 {
		t.Errorf("max-degree vertex got ID %d, want 0", perm[0])
	}
}

func TestGOrderGroupsSiblings(t *testing.T) {
	// Two disjoint "families": vertices sharing an in-neighbour should be
	// placed near each other. Parent 0 -> {2,3,4}; parent 1 -> {5,6,7}.
	edges := []graph.Edge{
		{Src: 0, Dst: 2}, {Src: 0, Dst: 3}, {Src: 0, Dst: 4},
		{Src: 1, Dst: 5}, {Src: 1, Dst: 6}, {Src: 1, Dst: 7},
	}
	g := graph.FromEdges(8, edges)
	perm := Perm(MustNew("go"), g)
	if err := perm.Validate(); err != nil {
		t.Fatal(err)
	}
	spreadA := spread(perm, []uint32{2, 3, 4})
	spreadB := spread(perm, []uint32{5, 6, 7})
	// Each sibling set spans at most 4 consecutive-ish IDs (the parent may
	// interleave), far tighter than a random placement over 8 IDs.
	if spreadA > 3 || spreadB > 3 {
		t.Errorf("sibling sets scattered: spreads %d, %d (perm %v)", spreadA, spreadB, perm)
	}
}

// spread returns max(newID) - min(newID) over the given old IDs.
func spread(perm graph.Permutation, vs []uint32) uint32 {
	lo, hi := perm[vs[0]], perm[vs[0]]
	for _, v := range vs[1:] {
		if perm[v] < lo {
			lo = perm[v]
		}
		if perm[v] > hi {
			hi = perm[v]
		}
	}
	return hi - lo
}

func TestGOrderHandlesDisconnected(t *testing.T) {
	g := graph.FromEdges(6, []graph.Edge{{Src: 0, Dst: 1}, {Src: 3, Dst: 4}})
	perm := Perm(MustNew("go"), g)
	if err := perm.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGOrderWindowConfigurable(t *testing.T) {
	g := gen.ErdosRenyi(200, 1000, 3)
	a := Perm(&GOrder{Window: 3}, g)
	b := Perm(&GOrder{Window: 8}, g)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	// Zero window falls back to the default without crashing.
	c := Perm(&GOrder{}, g)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGOrderImprovesTemporalProximity(t *testing.T) {
	// On a community-structured web graph, consecutive placed vertices
	// should share in-neighbours more often than under a random order.
	g := gen.WebGraph(gen.DefaultWebGraph(1024, 6, 8))
	score := func(perm graph.Permutation) int {
		inv := inverse(perm)
		total := 0
		for i := 1; i < len(inv); i++ {
			total += commonInNeighbors(g, inv[i-1], inv[i])
		}
		return total
	}
	gorder := score(Perm(MustNew("go"), g))
	random := score(Perm(Random{Seed: 4}, g))
	if gorder <= random {
		t.Errorf("GOrder adjacency sharing %d not above random %d", gorder, random)
	}
}

func commonInNeighbors(g *graph.Graph, a, b uint32) int {
	na, nb := g.InNeighbors(a), g.InNeighbors(b)
	i, j, c := 0, 0, 0
	for i < len(na) && j < len(nb) {
		switch {
		case na[i] < nb[j]:
			i++
		case na[i] > nb[j]:
			j++
		default:
			c++
			i++
			j++
		}
	}
	return c
}
