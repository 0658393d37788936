package core_test

import (
	"testing"

	"graphlocality/internal/core"
	"graphlocality/internal/gen"
	"graphlocality/internal/graph"
	"graphlocality/internal/reorder"
)

// TestPackingFactorHandComputed pins the definition on a graph small enough
// to check by hand: 16 vertices, two hubs (0 and 8) of total degree 5, all
// other degrees <= 1. Average degree is 10/16, so the hot threshold is
// 2×10/16 = 1.25 and exactly the two hubs qualify. They sit in different
// 8-vertex lines, so PF = 2 / (2×8); swapping vertex 8 into vertex 1's
// slot packs both hubs into one line and doubles PF to 2/8.
func TestPackingFactorHandComputed(t *testing.T) {
	var edges []graph.Edge
	for _, hub := range []uint32{0, 8} {
		for k := uint32(1); k <= 5; k++ {
			edges = append(edges, graph.Edge{Src: hub, Dst: hub + k})
		}
	}
	g := graph.FromEdges(16, edges)
	if got, want := core.PackingFactor(g), 2.0/16.0; got != want {
		t.Errorf("PackingFactor = %v, want %v", got, want)
	}

	perm := graph.Identity(16)
	perm[8], perm[1] = 1, 8
	if got, want := core.PackingFactor(g.Relabel(perm)), 2.0/8.0; got != want {
		t.Errorf("PackingFactor after packing both hubs = %v, want %v", got, want)
	}
}

// TestPackingFactorDegenerate covers the no-hot-vertex cases: an empty
// graph, and a degree-regular ring where every total degree equals the
// threshold exactly (hot requires strict excess), so nothing is packable.
func TestPackingFactorDegenerate(t *testing.T) {
	if got := core.PackingFactor(graph.FromEdges(0, nil)); got != 0 {
		t.Errorf("PackingFactor(empty) = %v, want 0", got)
	}
	const n = 64
	edges := make([]graph.Edge, n)
	for v := uint32(0); v < n; v++ {
		edges[v] = graph.Edge{Src: v, Dst: (v + 1) % n}
	}
	ring := graph.FromEdges(n, edges)
	if got := core.PackingFactor(ring); got != 0 {
		t.Errorf("PackingFactor(ring) = %v, want 0 (no vertex above threshold)", got)
	}
}

// TestPackingFactorHubOrderings is the metamorphic anchor: orderings whose
// whole purpose is packing hubs densely (HubSort, HubCluster, DBG) must
// not lower the packing factor of a skewed graph, and the random ordering
// must leave a valid value in (0, 1].
func TestPackingFactorHubOrderings(t *testing.T) {
	g := gen.SocialNetwork(10, 8, 5)
	base := core.PackingFactor(g)
	if base <= 0 || base > 1 {
		t.Fatalf("baseline PF = %v, want (0,1]", base)
	}
	for _, name := range []string{"hubsort", "hubcluster", "dbg", "boba"} {
		rg := g.Relabel(reorder.Perm(reorder.MustNew(name), g))
		if got := core.PackingFactor(rg); got < base {
			t.Errorf("%s lowered PF: %v < baseline %v", name, got, base)
		}
	}
}
