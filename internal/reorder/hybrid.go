package reorder

import (
	"context"
	"math"

	"graphlocality/internal/graph"
)

// Hybrid implements the reordering the paper proposes as future work
// (§VIII-C): "a new RA can merge Rabbit-Order and GOrder techniques to
// improve locality of both LDV and HDV. Such an RA may start from LDV
// like RO to build initial clusters and then switch to a method like GO
// to relabel HDV."
//
// Vertices with undirected degree ≤ √|V| (the hub threshold) are
// clustered and numbered by Rabbit-Order's community growth + DFS; the
// hubs are then appended, ordered by a GOrder pass restricted to the
// hub-induced subgraph so hubs sharing in-neighbours sit close together.
type Hybrid struct {
	// Window is the GOrder sliding window used for the hub pass.
	Window int
}

// Name implements Algorithm.
func (h *Hybrid) Name() string { return displayName("RO+GO", windowParams(h.Window)...) }

// Spec implements Algorithm.
func (h *Hybrid) Spec() string { return specOf("hybrid", windowParams(h.Window)...) }

// Reorder implements Algorithm: both phases inherit ctx, and cancellation
// in either still yields a valid (partially optimized) permutation
// alongside the error.
func (h *Hybrid) Reorder(ctx context.Context, g *graph.Graph) (graph.Permutation, error) {
	n := g.NumVertices()
	if n == 0 {
		return graph.Permutation{}, nil
	}
	thr := uint32(math.Sqrt(float64(n)))
	und := g.Undirected()

	// Phase 1: Rabbit-Order over the LDV (degree ≤ thr). Hubs fall
	// outside the EDR and land, in relative order, after the clustered
	// LDV block.
	ro := &RabbitOrder{MinDegree: 0, MaxDegree: thr}
	roPerm, err := ro.Reorder(ctx, g)
	if err != nil {
		return roPerm, err
	}

	// Count LDV to locate the hub block.
	var numLDV uint32
	isHub := make([]bool, n)
	for v := uint32(0); v < n; v++ {
		if und.OutDegree(v) > thr {
			isHub[v] = true
		} else {
			numLDV++
		}
	}
	if numLDV == n {
		return roPerm, nil // no hubs at all
	}

	// Phase 2: GOrder over the hub-induced subgraph, rewriting the hub
	// block of roPerm. A canceled GOrder still returns a valid (partially
	// placed) permutation of the subgraph, so the merged result below
	// stays a bijection either way.
	sub, compact := g.InducedSubgraph(isHub)
	goPerm, err := (&GOrder{Window: h.Window}).Reorder(ctx, sub)

	// Hubs occupy IDs [numLDV, n) ordered by the GOrder pass.
	perm := make(graph.Permutation, n)
	for v := uint32(0); v < n; v++ {
		if isHub[v] {
			perm[v] = numLDV + goPerm[compact[v]]
		} else {
			perm[v] = roPerm[v]
		}
	}
	return perm, err
}
