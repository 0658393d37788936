package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSubgraphViewBasic(t *testing.T) {
	g := diamond() // 0->1, 0->2, 1->3, 2->3, 3->0
	views := g.PartitionByMembership([]uint32{0, 0, 1, 0}, 2)
	if len(views) != 2 {
		t.Fatalf("views = %d, want 2", len(views))
	}
	sv := views[0]
	if sv.NumVertices() != 3 {
		t.Fatalf("|V| = %d, want 3", sv.NumVertices())
	}
	// Members 0,1,3 get local IDs 0,1,2 in ascending global order.
	for l, want := range []uint32{0, 1, 3} {
		if sv.Global(uint32(l)) != want {
			t.Errorf("Global(%d) = %d, want %d", l, sv.Global(uint32(l)), want)
		}
		if sv.Local(want) != uint32(l) {
			t.Errorf("Local(%d) = %d, want %d", want, sv.Local(want), l)
		}
	}
	if sv.Local(2) != NoVertex || sv.Contains(2) {
		t.Error("non-member 2 not rejected")
	}
	// Internal edges: 0->1, 1->3, 3->0 (0->2 and 2->3 cross the cut).
	if sv.NumInternalEdges() != 3 {
		t.Errorf("internal edges = %d, want 3", sv.NumInternalEdges())
	}
	if d := sv.OutDegree(0); d != 1 {
		t.Errorf("local OutDegree(0) = %d, want 1", d)
	}
	deg := sv.InternalDegrees()
	for l, want := range []uint32{2, 2, 2} { // each member: 1 in + 1 out internal
		if deg[l] != want {
			t.Errorf("InternalDegrees[%d] = %d, want %d", l, deg[l], want)
		}
	}
	var edges [][2]uint32
	sv.EachInternalOut(func(src, dst uint32) { edges = append(edges, [2]uint32{src, dst}) })
	if len(edges) != 3 {
		t.Fatalf("EachInternalOut visited %d edges, want 3", len(edges))
	}

	sub := sv.Materialize()
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
	if sub.NumVertices() != 3 || sub.NumEdges() != 3 {
		t.Fatalf("materialized %v, want |V|=3 |E|=3", sub)
	}
	if !sub.HasEdge(0, 1) || !sub.HasEdge(1, 2) || !sub.HasEdge(2, 0) {
		t.Error("materialized edges wrong")
	}
}

func TestSubgraphSingleBlockMaterializesIdentically(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 80, 400)
	views := g.PartitionByMembership(make([]uint32, 80), 1)
	sub := views[0].Materialize()
	if !g.Equal(sub) {
		t.Error("single-block materialization is not the identity embedding")
	}
}

func TestSubgraphPanicsOnBadMembership(t *testing.T) {
	g := diamond()
	for name, fn := range map[string]func(){
		"short":        func() { g.PartitionByMembership([]uint32{0}, 1) },
		"out-of-range": func() { g.PartitionByMembership([]uint32{0, 0, 5, 0}, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s membership did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestSubgraphViewMatchesInducedSubgraph pins the view against the
// existing copying implementation: for a random partition, every block's
// materialization must equal InducedSubgraph over the same member mask,
// and the view's degree/edge accounting must agree with the materialized
// graph.
func TestSubgraphViewMatchesInducedSubgraph(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := uint32(rng.Intn(60) + 1)
		g := randomGraph(rng, n, rng.Intn(250))
		count := rng.Intn(4) + 1
		membership := make([]uint32, n)
		for v := range membership {
			membership[v] = uint32(rng.Intn(count))
		}
		views := g.PartitionByMembership(membership, count)
		var covered uint32
		for c, sv := range views {
			covered += sv.NumVertices()
			keep := make([]bool, n)
			for v := uint32(0); v < n; v++ {
				keep[v] = membership[v] == uint32(c)
			}
			want, mapping := g.InducedSubgraph(keep)
			got := sv.Materialize()
			if !got.Equal(want) {
				return false
			}
			if got.Validate() != nil {
				return false
			}
			// The view's local IDs must agree with InducedSubgraph's
			// ascending renumbering.
			for v := uint32(0); v < n; v++ {
				if keep[v] && sv.Local(v) != mapping[v] {
					return false
				}
			}
			if sv.NumInternalEdges() != want.NumEdges() {
				return false
			}
		}
		return covered == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestInducedSubgraphBasic(t *testing.T) {
	g := diamond() // 0->1, 0->2, 1->3, 2->3, 3->0
	sub, mapping := g.InducedSubgraph([]bool{true, true, false, true})
	if sub.NumVertices() != 3 {
		t.Fatalf("|V| = %d, want 3", sub.NumVertices())
	}
	// Kept: 0->1, 1->3, 3->0 under new IDs 0,1,2.
	if sub.NumEdges() != 3 {
		t.Fatalf("|E| = %d, want 3", sub.NumEdges())
	}
	if mapping[2] != NoVertex {
		t.Error("dropped vertex not marked")
	}
	if !sub.HasEdge(mapping[0], mapping[1]) || !sub.HasEdge(mapping[1], mapping[3]) ||
		!sub.HasEdge(mapping[3], mapping[0]) {
		t.Error("edges not remapped correctly")
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInducedSubgraphPanicsOnBadMask(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("short mask did not panic")
		}
	}()
	diamond().InducedSubgraph([]bool{true})
}

func TestInducedSubgraphProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := uint32(rng.Intn(60) + 1)
		g := randomGraph(rng, n, rng.Intn(250))
		keep := make([]bool, n)
		kept := uint32(0)
		for i := range keep {
			keep[i] = rng.Intn(2) == 0
			if keep[i] {
				kept++
			}
		}
		sub, mapping := g.InducedSubgraph(keep)
		if sub.NumVertices() != kept || sub.Validate() != nil {
			return false
		}
		// Every surviving edge's preimage exists; count matches.
		var want uint64
		for _, e := range g.Edges() {
			if keep[e.Src] && keep[e.Dst] {
				want++
				if !sub.HasEdge(mapping[e.Src], mapping[e.Dst]) {
					return false
				}
			}
		}
		return sub.NumEdges() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Local translates a parent vertex ID to the view's local ID space. It
// returns NoVertex for vertices outside the view.
func (s *Subgraph) Local(g uint32) uint32 {
	if s.membership[g] != s.id {
		return NoVertex
	}
	return s.local[g]
}

// NumInternalEdges counts the directed edges with both endpoints inside
// the view.
func (s *Subgraph) NumInternalEdges() uint64 {
	var m uint64
	for _, gv := range s.verts {
		for _, u := range s.parent.OutNeighbors(gv) {
			if s.membership[u] == s.id {
				m++
			}
		}
	}
	return m
}

// EachInternalOut calls fn(src, dst) with local IDs for every directed
// edge internal to the view, in (src asc, dst asc) order.
func (s *Subgraph) EachInternalOut(fn func(src, dst uint32)) {
	for l, gv := range s.verts {
		for _, u := range s.parent.OutNeighbors(gv) {
			if s.membership[u] == s.id {
				fn(uint32(l), s.local[u])
			}
		}
	}
}

// Contains reports whether parent vertex g is a member of the view.
func (s *Subgraph) Contains(g uint32) bool { return s.membership[g] == s.id }
