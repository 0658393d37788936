package core

import (
	"testing"

	"graphlocality/internal/gen"
	"graphlocality/internal/graph"
	"graphlocality/internal/trace"
)

func TestReuseDistancesAccounting(t *testing.T) {
	g := gen.ErdosRenyi(500, 3000, 1)
	p := ReuseDistances(g, trace.Pull, 64)
	// Total = |E| reads + |V| writes.
	want := g.NumEdges() + uint64(g.NumVertices())
	if p.Total != want {
		t.Errorf("Total = %d, want %d", p.Total, want)
	}
	var bucketed uint64
	for _, c := range p.Buckets {
		bucketed += c
	}
	if bucketed+p.Cold != p.Total {
		t.Errorf("buckets (%d) + cold (%d) != total (%d)", bucketed, p.Cold, p.Total)
	}
}

func TestReuseDistanceStarIsShort(t *testing.T) {
	// Star pull traversal: every edge reads the same leaf set... actually
	// the centre reads all leaves once (cold), then each leaf writes its
	// own data. The centre's data is read zero times; reuse only from
	// line sharing. Use a two-hub graph instead: all vertices read hub 0
	// repeatedly -> reuse distance ~0.
	edges := []graph.Edge{}
	for v := uint32(1); v < 200; v++ {
		edges = append(edges, graph.Edge{Src: 0, Dst: v})
	}
	g := graph.FromEdges(200, edges)
	p := ReuseDistances(g, trace.Pull, 64)
	if p.Buckets[0]+p.Buckets[1] == 0 {
		t.Error("expected short reuse distances reading the shared hub")
	}
	if m := p.MeanReuseDistance(); m > 16 {
		t.Errorf("mean reuse distance %.1f too large for hub-read pattern", m)
	}
}

func TestReuseDistanceScatteredIsLong(t *testing.T) {
	// A shuffled ER graph must show a longer mean reuse distance than the
	// hub-read pattern above.
	g := gen.ErdosRenyi(4000, 20000, 9)
	p := ReuseDistances(g, trace.Pull, 64)
	if p.MeanReuseDistance() < 8 {
		t.Errorf("mean reuse distance %.1f suspiciously short for random graph", p.MeanReuseDistance())
	}
}

func TestMeanReuseDistanceEmpty(t *testing.T) {
	var p ReuseProfile
	p.Buckets = make([]uint64, 4)
	if p.MeanReuseDistance() != 0 {
		t.Error("empty profile mean should be 0")
	}
}

func TestClassifyLocalityTypes(t *testing.T) {
	// Two vertices sharing a neighbour (type II), consecutive neighbours
	// on one line (type I).
	edges := []graph.Edge{
		{Src: 8, Dst: 100}, {Src: 9, Dst: 100}, // 8,9 adjacent IDs: same line (64B = 8 vertices)
		{Src: 8, Dst: 101}, // vertex 8 read again by 101: type II
	}
	g := graph.FromEdges(102, edges)
	p := ClassifyLocalityTypes(g, 64, 1, 1024)
	if p.Total != 3 {
		t.Fatalf("Total = %d, want 3", p.Total)
	}
	if p.Cold != 1 {
		t.Errorf("Cold = %d, want 1", p.Cold)
	}
	if p.TypeI != 1 {
		t.Errorf("TypeI = %d, want 1 (9 after 8 within vertex 100)", p.TypeI)
	}
	if p.TypeII != 1 {
		t.Errorf("TypeII = %d, want 1 (8 reused by vertex 101)", p.TypeII)
	}
}

func TestClassifyLocalityTypesConservation(t *testing.T) {
	g := gen.WebGraph(gen.DefaultWebGraph(2048, 6, 3))
	p := ClassifyLocalityTypes(g, 64, 1, 1024)
	if p.TypeI+p.TypeII+p.TypeIII+p.Cold != p.Total {
		t.Errorf("type counts don't sum: %+v", p)
	}
	if p.TypeIV != 0 || p.TypeV != 0 {
		t.Error("serial profile must not report cross-thread types")
	}
	if p.Total != g.NumEdges() {
		t.Errorf("Total = %d, want |E| = %d", p.Total, g.NumEdges())
	}
}

func TestClassifyLocalityTypesParallel(t *testing.T) {
	g := gen.WebGraph(gen.DefaultWebGraph(2048, 6, 3))
	p := ClassifyLocalityTypes(g, 64, 4, 64)
	if p.TypeI+p.TypeII+p.TypeIII+p.TypeIV+p.TypeV+p.Cold != p.Total {
		t.Errorf("type counts don't sum: %+v", p)
	}
	if p.Total != g.NumEdges() {
		t.Errorf("Total = %d, want |E| = %d", p.Total, g.NumEdges())
	}
	if p.TypeIV+p.TypeV == 0 {
		t.Error("interleaved traversal showed no cross-thread reuse")
	}
	// One thread has no other thread to reuse a line from.
	if s1 := ClassifyLocalityTypes(g, 64, 1, 64); s1.TypeIV != 0 || s1.TypeV != 0 {
		t.Errorf("1-thread profile reports cross-thread types: %+v", s1)
	}
}
