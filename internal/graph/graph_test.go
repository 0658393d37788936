package graph

import (
	"bytes"
	"strings"
	"testing"
)

// diamond returns a small fixed test graph:
//
//	0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3, 3 -> 0
func diamond() *Graph {
	return FromEdges(4, []Edge{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 0}})
}

func TestFromEdgesBasic(t *testing.T) {
	g := diamond()
	if g.NumVertices() != 4 {
		t.Fatalf("NumVertices = %d, want 4", g.NumVertices())
	}
	if g.NumEdges() != 5 {
		t.Fatalf("NumEdges = %d, want 5", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	wantOut := [][]uint32{{1, 2}, {3}, {3}, {0}}
	for v := uint32(0); v < 4; v++ {
		got := g.OutNeighbors(v)
		if len(got) != len(wantOut[v]) {
			t.Fatalf("OutNeighbors(%d) = %v, want %v", v, got, wantOut[v])
		}
		for i := range got {
			if got[i] != wantOut[v][i] {
				t.Fatalf("OutNeighbors(%d) = %v, want %v", v, got, wantOut[v])
			}
		}
	}
	wantIn := [][]uint32{{3}, {0}, {0}, {1, 2}}
	for v := uint32(0); v < 4; v++ {
		got := g.InNeighbors(v)
		if len(got) != len(wantIn[v]) {
			t.Fatalf("InNeighbors(%d) = %v, want %v", v, got, wantIn[v])
		}
		for i := range got {
			if got[i] != wantIn[v][i] {
				t.Fatalf("InNeighbors(%d) = %v, want %v", v, got, wantIn[v])
			}
		}
	}
}

func TestDegrees(t *testing.T) {
	g := diamond()
	wantOut := []uint32{2, 1, 1, 1}
	wantIn := []uint32{1, 1, 1, 2}
	for v := uint32(0); v < 4; v++ {
		if g.OutDegree(v) != wantOut[v] {
			t.Errorf("OutDegree(%d) = %d, want %d", v, g.OutDegree(v), wantOut[v])
		}
		if g.InDegree(v) != wantIn[v] {
			t.Errorf("InDegree(%d) = %d, want %d", v, g.InDegree(v), wantIn[v])
		}
	}
	if g.Reverse().MaxInDegree() != 2 || g.MaxInDegree() != 2 {
		t.Errorf("max degrees = (%d,%d), want (2,2)", g.Reverse().MaxInDegree(), g.MaxInDegree())
	}
	if got := g.AverageDegree(); got != 1.25 {
		t.Errorf("AverageDegree = %v, want 1.25", got)
	}
}

func TestEmptyGraph(t *testing.T) {
	g := FromEdges(0, nil)
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph: got |V|=%d |E|=%d", g.NumVertices(), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate empty: %v", err)
	}
	if g.AverageDegree() != 0 {
		t.Errorf("AverageDegree of empty = %v, want 0", g.AverageDegree())
	}
}

func TestIsolatedVertices(t *testing.T) {
	// 5 vertices, only one edge.
	g := FromEdges(5, []Edge{{0, 4}})
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	for v := uint32(1); v < 4; v++ {
		if g.OutDegree(v) != 0 || g.InDegree(v) != 0 {
			t.Errorf("vertex %d should be isolated", v)
		}
	}
}

func TestHasEdge(t *testing.T) {
	g := diamond()
	cases := []struct {
		u, v uint32
		want bool
	}{
		{0, 1, true}, {0, 2, true}, {1, 3, true}, {3, 0, true},
		{1, 0, false}, {0, 3, false}, {2, 1, false}, {3, 3, false},
	}
	for _, c := range cases {
		if got := g.HasEdge(c.u, c.v); got != c.want {
			t.Errorf("HasEdge(%d,%d) = %v, want %v", c.u, c.v, got, c.want)
		}
	}
}

func TestReverse(t *testing.T) {
	g := diamond()
	r := g.Reverse()
	if err := r.Validate(); err != nil {
		t.Fatalf("Validate reverse: %v", err)
	}
	for _, e := range g.Edges() {
		if !r.HasEdge(e.Dst, e.Src) {
			t.Errorf("reverse missing edge (%d,%d)", e.Dst, e.Src)
		}
	}
	if r.NumEdges() != g.NumEdges() {
		t.Errorf("reverse |E| = %d, want %d", r.NumEdges(), g.NumEdges())
	}
	// Double reverse is the original.
	if !g.Equal(r.Reverse()) {
		t.Error("double reverse differs from original")
	}
}

func TestUndirected(t *testing.T) {
	g := FromEdges(3, []Edge{{0, 1}, {1, 0}, {1, 2}})
	u := g.Undirected()
	if err := u.Validate(); err != nil {
		t.Fatalf("Validate undirected: %v", err)
	}
	// (0,1) existed both ways: dedup to single edge each direction.
	// (1,2) becomes (1,2) and (2,1).
	if u.NumEdges() != 4 {
		t.Fatalf("undirected |E| = %d, want 4", u.NumEdges())
	}
	for _, e := range u.Edges() {
		if !u.HasEdge(e.Dst, e.Src) {
			t.Errorf("undirected graph not symmetric at (%d,%d)", e.Src, e.Dst)
		}
	}
}

func TestDedup(t *testing.T) {
	g := FromEdgesDedup(2, []Edge{{0, 1}, {0, 1}, {0, 1}, {1, 0}})
	if g.NumEdges() != 2 {
		t.Fatalf("dedup |E| = %d, want 2", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSelfLoops(t *testing.T) {
	g := FromEdges(2, []Edge{{0, 0}, {0, 1}, {1, 1}})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(0, 0) || !g.HasEdge(1, 1) {
		t.Error("self loops lost")
	}
	if g.InDegree(0) != 1 || g.OutDegree(0) != 2 {
		t.Errorf("degrees with self loop: in=%d out=%d", g.InDegree(0), g.OutDegree(0))
	}
}

func TestParallelEdgesKept(t *testing.T) {
	g := FromEdges(2, []Edge{{0, 1}, {0, 1}})
	if g.NumEdges() != 2 {
		t.Fatalf("parallel edges collapsed: |E| = %d", g.NumEdges())
	}
	if g.OutDegree(0) != 2 || g.InDegree(1) != 2 {
		t.Error("parallel edge degrees wrong")
	}
}

func TestFromCSR(t *testing.T) {
	off := []uint64{0, 2, 3, 3}
	adj := []uint32{1, 2, 0}
	g, err := FromCSR(3, off, adj)
	if err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(0, 2) || !g.HasEdge(1, 0) {
		t.Error("FromCSR lost edges")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFromCSRErrors(t *testing.T) {
	if _, err := FromCSR(2, []uint64{0, 1}, []uint32{0}); err == nil {
		t.Error("short offsets accepted")
	}
	if _, err := FromCSR(2, []uint64{0, 1, 3}, []uint32{0}); err == nil {
		t.Error("bad tail offset accepted")
	}
	if _, err := FromCSR(2, []uint64{0, 1, 1}, []uint32{7}); err == nil {
		t.Error("out-of-range neighbour accepted")
	}
	if _, err := FromCSR(2, []uint64{0, 2, 1}, []uint32{0}); err == nil {
		t.Error("non-monotone offsets accepted")
	}
	// A non-zero head offset would leave adj[:offsets[0]] outside every
	// bucket; both shapes must be rejected, not built into a graph.
	if _, err := FromCSR(2, []uint64{1, 1, 1}, []uint32{0}); err == nil {
		t.Error("non-zero head offset accepted")
	}
	if _, err := FromCSR(2, []uint64{1, 1, 2}, []uint32{1, 0}); err == nil {
		t.Error("non-zero head offset with edges accepted")
	}
}

func TestRemoveZeroDegree(t *testing.T) {
	g := FromEdges(6, []Edge{{0, 2}, {2, 5}})
	// vertices 1, 3, 4 are isolated.
	h, mapping := g.RemoveZeroDegree()
	if h.NumVertices() != 3 {
		t.Fatalf("compacted |V| = %d, want 3", h.NumVertices())
	}
	if h.NumEdges() != 2 {
		t.Fatalf("compacted |E| = %d, want 2", h.NumEdges())
	}
	if mapping[1] != NoVertex || mapping[3] != NoVertex || mapping[4] != NoVertex {
		t.Error("isolated vertices not marked removed")
	}
	if mapping[0] != 0 || mapping[2] != 1 || mapping[5] != 2 {
		t.Errorf("mapping = %v", mapping)
	}
	if !h.HasEdge(0, 1) || !h.HasEdge(1, 2) {
		t.Error("edges not remapped")
	}
	// No-op when nothing is isolated.
	g2 := diamond()
	h2, _ := g2.RemoveZeroDegree()
	if h2 != g2 {
		t.Error("RemoveZeroDegree should return receiver unchanged when nothing to remove")
	}
}

func TestHubPredicates(t *testing.T) {
	// 10 vertices -> hub threshold sqrt(10) ~ 3.16: need degree >= 4.
	edges := []Edge{}
	for i := uint32(1); i <= 5; i++ {
		edges = append(edges, Edge{i, 0}) // vertex 0: in-degree 5 (in-hub)
		edges = append(edges, Edge{6, i}) // vertex 6: out-degree 5 (out-hub)
	}
	g := FromEdges(10, edges)
	if g.CountInHubs() != 1 || g.CountOutHubs() != 1 {
		t.Errorf("hub counts = (%d,%d), want (1,1)", g.CountInHubs(), g.CountOutHubs())
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := diamond()
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	h, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(h) {
		t.Error("edge list round trip changed the graph")
	}
}

func TestReadEdgeListComments(t *testing.T) {
	in := "# comment\n% another\n\n0 1\n1 2 extra-ignored\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 2 {
		t.Fatalf("got |V|=%d |E|=%d", g.NumVertices(), g.NumEdges())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	if _, err := ReadEdgeList(strings.NewReader("0\n")); err == nil {
		t.Error("single-field line accepted")
	}
	if _, err := ReadEdgeList(strings.NewReader("4294967295 0\n")); err == nil {
		t.Error("reserved/overflowing vertex ID accepted")
	}
	if _, err := ReadEdgeList(strings.NewReader("0 16777216\n")); err == nil {
		t.Error("ID above the text-format limit accepted")
	}
	if _, err := ReadEdgeList(strings.NewReader("a b\n")); err == nil {
		t.Error("non-numeric src accepted")
	}
	if _, err := ReadEdgeList(strings.NewReader("0 b\n")); err == nil {
		t.Error("non-numeric dst accepted")
	}
	g, err := ReadEdgeList(strings.NewReader("# only comments\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 0 {
		t.Error("empty input should produce empty graph")
	}
}

func TestEqual(t *testing.T) {
	a := diamond()
	b := diamond()
	if !a.Equal(b) {
		t.Error("identical graphs not Equal")
	}
	c := FromEdges(4, []Edge{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 1}})
	if a.Equal(c) {
		t.Error("different graphs Equal")
	}
	d := FromEdges(5, a.Edges())
	if a.Equal(d) {
		t.Error("graphs with different |V| Equal")
	}
}

func TestStringer(t *testing.T) {
	s := diamond().String()
	if !strings.Contains(s, "|V|=4") || !strings.Contains(s, "|E|=5") {
		t.Errorf("String() = %q", s)
	}
}

// Reverse returns the transpose graph: every edge (u,v) becomes (v,u).
// Because Graph stores both CSR and CSC, this is a cheap view swap.
func (g *Graph) Reverse() *Graph {
	return &Graph{
		n:      g.n,
		outOff: g.inOff,
		outAdj: g.inAdj,
		inOff:  g.outOff,
		inAdj:  g.outAdj,
	}
}
