package reorder

import (
	"context"
	"testing"

	"graphlocality/internal/gen"
	"graphlocality/internal/graph"
)

// checkPartition verifies the core community invariant: every vertex is
// assigned exactly once, IDs are compact in [0, Count), every community is
// non-empty, and community numbering follows smallest members.
func checkPartition(t *testing.T, g *graph.Graph, c Communities) {
	t.Helper()
	if uint32(len(c.Membership)) != g.NumVertices() {
		t.Fatalf("membership covers %d of %d vertices", len(c.Membership), g.NumVertices())
	}
	seen := make([]bool, c.Count)
	for v, cm := range c.Membership {
		if int(cm) >= c.Count {
			t.Fatalf("vertex %d assigned to community %d, count %d", v, cm, c.Count)
		}
		seen[cm] = true
	}
	for id, ok := range seen {
		if !ok {
			t.Fatalf("community %d is empty", id)
		}
	}
	// Numbering by smallest member: the first vertex in each community, in
	// vertex order, must introduce IDs 0,1,2,...
	next := uint32(0)
	intro := make(map[uint32]bool, c.Count)
	for _, cm := range c.Membership {
		if !intro[cm] {
			if cm != next {
				t.Fatalf("community IDs not in first-appearance order: saw %d, want %d", cm, next)
			}
			intro[cm] = true
			next++
		}
	}
	// Groups must mirror the membership exactly.
	total := 0
	for id, grp := range c.Groups() {
		total += len(grp)
		for _, v := range grp {
			if c.Membership[v] != uint32(id) {
				t.Fatalf("Groups()[%d] contains vertex %d of community %d", id, v, c.Membership[v])
			}
		}
	}
	if total != len(c.Membership) {
		t.Fatalf("Groups cover %d vertices, want %d", total, len(c.Membership))
	}
}

func twoCliquesBridged(k uint32) *graph.Graph {
	var edges []graph.Edge
	for i := uint32(0); i < k; i++ {
		for j := uint32(0); j < k; j++ {
			if i != j {
				edges = append(edges, graph.Edge{Src: i, Dst: j})
				edges = append(edges, graph.Edge{Src: k + i, Dst: k + j})
			}
		}
	}
	edges = append(edges, graph.Edge{Src: 0, Dst: k})
	return graph.FromEdges(2*k, edges)
}

func TestDetectLouvainFindsPlantedCommunities(t *testing.T) {
	g := twoCliquesBridged(8)
	c, err := DetectLouvain(context.Background(), g, 1.0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, g, c)
	if c.Count != 2 {
		t.Fatalf("Count = %d, want 2 planted communities", c.Count)
	}
	// Both cliques must land wholly in one community each.
	for v := uint32(1); v < 8; v++ {
		if c.Membership[v] != c.Membership[0] {
			t.Errorf("clique A split: vertex %d", v)
		}
		if c.Membership[8+v] != c.Membership[8] {
			t.Errorf("clique B split: vertex %d", 8+v)
		}
	}
	if c.Membership[0] == c.Membership[8] {
		t.Error("both cliques merged into one community")
	}
}

func TestDetectorsPartitionInvariant(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"empty":    graph.FromEdges(0, nil),
		"isolated": graph.FromEdges(5, nil),
		"rmat":     gen.RMAT(gen.DefaultRMAT(10, 8, 7)),
		"er":       gen.ErdosRenyi(300, 1200, 11),
	}
	for name, g := range graphs {
		g := g
		t.Run(name, func(t *testing.T) {
			lv, err := DetectLouvain(context.Background(), g, 1.0, 7, 0)
			if err != nil {
				t.Fatal(err)
			}
			checkPartition(t, g, lv)
			lp, err := DetectLabelProp(context.Background(), g, 7, 0)
			if err != nil {
				t.Fatal(err)
			}
			checkPartition(t, g, lp)
			checkPartition(t, g, SingleCommunity(g))
		})
	}
}

func TestDetectorsDeterministicUnderFixedSeed(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(11, 8, 5))
	a, err := DetectLouvain(context.Background(), g, 1.0, 42, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DetectLouvain(context.Background(), g, 1.0, 42, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Count != b.Count {
		t.Fatalf("Louvain counts differ: %d vs %d", a.Count, b.Count)
	}
	for v := range a.Membership {
		if a.Membership[v] != b.Membership[v] {
			t.Fatalf("Louvain memberships differ at vertex %d", v)
		}
	}
	la, err := DetectLabelProp(context.Background(), g, 42, 0)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := DetectLabelProp(context.Background(), g, 42, 0)
	if err != nil {
		t.Fatal(err)
	}
	if la.Count != lb.Count {
		t.Fatalf("LabelProp counts differ: %d vs %d", la.Count, lb.Count)
	}
	for v := range la.Membership {
		if la.Membership[v] != lb.Membership[v] {
			t.Fatalf("LabelProp memberships differ at vertex %d", v)
		}
	}
}

func TestDetectLouvainResolutionMonotonicity(t *testing.T) {
	// Higher resolution favours smaller (hence at least as many)
	// communities; at minimum it must still produce a valid partition.
	g := gen.RMAT(gen.DefaultRMAT(10, 8, 3))
	lo, err := DetectLouvain(context.Background(), g, 0.5, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := DetectLouvain(context.Background(), g, 2.0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, g, lo)
	checkPartition(t, g, hi)
	if hi.Count < lo.Count {
		t.Errorf("resolution 2.0 found %d communities, fewer than %d at 0.5", hi.Count, lo.Count)
	}
}

func TestDetectLouvainCancellation(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(12, 8, 9))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c, err := DetectLouvain(ctx, g, 1.0, 1, 1)
	if err == nil {
		t.Fatal("want cancellation error")
	}
	// Even canceled immediately, the partition must be total and compact.
	checkPartition(t, g, c)

	lp, err := DetectLabelProp(ctx, g, 1, 1)
	if err == nil {
		t.Fatal("want cancellation error")
	}
	checkPartition(t, g, lp)
}
