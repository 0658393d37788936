package reorder

import (
	"testing"

	"graphlocality/internal/gen"
	"graphlocality/internal/graph"
)

// communityGraph builds two dense 5-cliques joined by a single bridge.
func communityGraph() *graph.Graph {
	edges := []graph.Edge{}
	clique := func(lo uint32) {
		for i := lo; i < lo+5; i++ {
			for j := lo; j < lo+5; j++ {
				if i != j {
					edges = append(edges, graph.Edge{Src: i, Dst: j})
				}
			}
		}
	}
	clique(0)
	clique(5)
	edges = append(edges, graph.Edge{Src: 0, Dst: 5})
	return graph.FromEdges(10, edges)
}

func TestRabbitOrderClustersCommunities(t *testing.T) {
	g := communityGraph()
	perm := Perm(MustNew("ro"), g)
	if err := perm.Validate(); err != nil {
		t.Fatal(err)
	}
	// Each clique must occupy a contiguous ID block of width 4 (5 members
	// spread over at most 5 consecutive IDs).
	if s := spread(perm, []uint32{0, 1, 2, 3, 4}); s != 4 {
		t.Errorf("clique A spread = %d, want 4 (contiguous)", s)
	}
	if s := spread(perm, []uint32{5, 6, 7, 8, 9}); s != 4 {
		t.Errorf("clique B spread = %d, want 4 (contiguous)", s)
	}
}

func TestRabbitOrderReducesGapOnHostGraph(t *testing.T) {
	// On a host-structured web graph whose IDs have been scrambled,
	// Rabbit-Order must reduce the average neighbour gap versus the
	// scrambled order.
	base := gen.WebGraph(gen.DefaultWebGraph(2048, 6, 12))
	g := base.Relabel(Perm(Random{Seed: 3}, base))
	perm := Perm(MustNew("ro"), g)
	h := g.Relabel(perm)
	if gap(h) >= gap(g) {
		t.Errorf("Rabbit-Order gap %.1f not below scrambled %.1f", gap(h), gap(g))
	}
}

// gap is the average |src-dst| over all edges (the "average gap profile"
// summary used by related work).
func gap(g *graph.Graph) float64 {
	var total float64
	for _, e := range g.Edges() {
		d := float64(e.Src) - float64(e.Dst)
		if d < 0 {
			d = -d
		}
		total += d
	}
	return total / float64(g.NumEdges())
}

func TestRabbitOrderEDRRestriction(t *testing.T) {
	g := gen.WebGraph(gen.DefaultWebGraph(1024, 6, 9))
	edr := MustNew("ro:edr=1-32")
	perm := Perm(edr, g)
	if err := perm.Validate(); err != nil {
		t.Fatal(err)
	}
	if edr.Name() != "RO-EDR[edr=1-32]" {
		t.Errorf("Name = %q", edr.Name())
	}
	// Out-of-range vertices keep relative order at the tail: collect them
	// and check their new IDs are increasing in old-ID order and above all
	// eligible vertices' IDs.
	und := g.Undirected()
	var maxEligible uint32
	var lastTail uint32
	firstTail := true
	tailStarted := false
	for v := uint32(0); v < g.NumVertices(); v++ {
		d := und.OutDegree(v)
		if d >= 1 && d <= 32 {
			if perm[v] > maxEligible {
				maxEligible = perm[v]
			}
		}
	}
	for v := uint32(0); v < g.NumVertices(); v++ {
		d := und.OutDegree(v)
		if d < 1 || d > 32 {
			tailStarted = true
			if perm[v] <= maxEligible {
				t.Fatalf("out-of-EDR vertex %d got ID %d below eligible max %d", v, perm[v], maxEligible)
			}
			if !firstTail && perm[v] <= lastTail {
				t.Fatal("out-of-EDR vertices not in relative order")
			}
			lastTail = perm[v]
			firstTail = false
		}
	}
	if !tailStarted {
		t.Skip("no out-of-EDR vertices in this graph")
	}
}

func TestRabbitOrderEDRFasterThanFull(t *testing.T) {
	// §VIII-B2: restricting to the EDR reduces preprocessing time.
	g := gen.WebGraph(gen.DefaultWebGraph(1<<13, 8, 15))
	full := Run(MustNew("ro"), g)
	edr := Run(MustNew("ro:edr=1-64"), g)
	if err := edr.Perm.Validate(); err != nil {
		t.Fatal(err)
	}
	// Allocation is the deterministic cost proxy; EDR must allocate less.
	if edr.AllocBytes >= full.AllocBytes {
		t.Errorf("EDR allocated %d >= full %d", edr.AllocBytes, full.AllocBytes)
	}
}

func TestRabbitOrderSingletonAndEmpty(t *testing.T) {
	for _, n := range []uint32{0, 1, 2} {
		g := graph.FromEdges(n, nil)
		perm := Perm(MustNew("ro"), g)
		if uint32(len(perm)) != n {
			t.Fatalf("n=%d: perm length %d", n, len(perm))
		}
		if err := perm.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestRabbitOrderSelfLoopGraph(t *testing.T) {
	g := graph.FromEdges(3, []graph.Edge{{Src: 0, Dst: 0}, {Src: 1, Dst: 2}})
	perm := Perm(MustNew("ro"), g)
	if err := perm.Validate(); err != nil {
		t.Fatal(err)
	}
}
