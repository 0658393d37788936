package core

import (
	"math"
	"testing"

	"graphlocality/internal/gen"
	"graphlocality/internal/graph"
	"graphlocality/internal/reorder"
)

func TestAIDBasic(t *testing.T) {
	// Vertex 3 has in-neighbours {0, 4, 10}: gaps 4 and 6, AID = 10/3.
	g := graph.FromEdges(11, []graph.Edge{{Src: 0, Dst: 3}, {Src: 4, Dst: 3}, {Src: 10, Dst: 3}})
	got := AID(g, 3)
	want := 10.0 / 3.0
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("AID = %v, want %v", got, want)
	}
}

func TestAIDDegenerate(t *testing.T) {
	g := graph.FromEdges(3, []graph.Edge{{Src: 0, Dst: 2}})
	if AID(g, 2) != 0 {
		t.Error("single-in-neighbour AID should be 0")
	}
	if AID(g, 0) != 0 {
		t.Error("no-in-neighbour AID should be 0")
	}
}

func TestAIDShiftInvariance(t *testing.T) {
	// AID depends only on gaps between neighbour IDs: shifting all
	// neighbour IDs by a constant leaves it unchanged.
	a := graph.FromEdges(30, []graph.Edge{{Src: 2, Dst: 0}, {Src: 5, Dst: 0}, {Src: 11, Dst: 0}})
	b := graph.FromEdges(30, []graph.Edge{{Src: 12, Dst: 0}, {Src: 15, Dst: 0}, {Src: 21, Dst: 0}})
	if AID(a, 0) != AID(b, 0) {
		t.Errorf("AID not shift invariant: %v vs %v", AID(a, 0), AID(b, 0))
	}
}

func TestAIDByDegreeRabbitOrderReducesLDV(t *testing.T) {
	// The paper's Fig. 3: Rabbit-Order reduces AID of low-degree vertices.
	base := gen.WebGraph(gen.DefaultWebGraph(4096, 6, 2))
	g := base.Relabel(reorder.Perm(reorder.Random{Seed: 8}, base))
	ro := g.Relabel(reorder.Perm(reorder.MustNew("ro"), g))

	before := AIDByDegree(g)
	after := AIDByDegree(ro)
	// Compare mean AID over the low-degree bins (degree < 10).
	var b, a float64
	var bn, an uint64
	for i := 0; i < before.Bins.Count(); i++ {
		if before.Bins.Lower(i) >= 10 {
			break
		}
		b += before.Sum[i]
		bn += before.Count[i]
	}
	for i := 0; i < after.Bins.Count(); i++ {
		if after.Bins.Lower(i) >= 10 {
			break
		}
		a += after.Sum[i]
		an += after.Count[i]
	}
	if bn == 0 || an == 0 {
		t.Fatal("no low-degree vertices sampled")
	}
	if a/float64(an) >= b/float64(bn) {
		t.Errorf("Rabbit-Order LDV AID %.1f not below random %.1f", a/float64(an), b/float64(bn))
	}
}

func TestMeanAID(t *testing.T) {
	// Eq. 1 divides the gap sum by |N|, not |N|-1.
	g := graph.FromEdges(20, []graph.Edge{
		{Src: 0, Dst: 5}, {Src: 2, Dst: 5}, // AID(5) = 2/2 = 1
		{Src: 0, Dst: 6}, {Src: 10, Dst: 6}, // AID(6) = 10/2 = 5
	})
	if got := MeanAID(g); math.Abs(got-3) > 1e-12 {
		t.Errorf("MeanAID = %v, want 3", got)
	}
	if MeanAID(graph.FromEdges(4, nil)) != 0 {
		t.Error("edgeless graph MeanAID should be 0")
	}
}

func TestAverageGap(t *testing.T) {
	g := graph.FromEdges(10, []graph.Edge{{Src: 0, Dst: 9}, {Src: 4, Dst: 5}})
	if got := AverageGap(g); got != 5 {
		t.Errorf("AverageGap = %v, want 5", got)
	}
	if AverageGap(graph.FromEdges(3, nil)) != 0 {
		t.Error("empty graph gap should be 0")
	}
}
