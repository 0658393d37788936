package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIdentityPermutation(t *testing.T) {
	p := Identity(5)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	g := diamond()
	h := g.Relabel(Identity(4))
	if !g.Equal(h) {
		t.Error("identity relabel changed the graph")
	}
}

func TestPermutationValidate(t *testing.T) {
	if err := Permutation([]uint32{0, 1, 2}).Validate(); err != nil {
		t.Errorf("valid permutation rejected: %v", err)
	}
	if err := Permutation([]uint32{0, 0, 2}).Validate(); err == nil {
		t.Error("duplicate new ID accepted")
	}
	if err := Permutation([]uint32{0, 5, 2}).Validate(); err == nil {
		t.Error("out-of-range new ID accepted")
	}
}

func TestPermutationInverse(t *testing.T) {
	p := Permutation([]uint32{2, 0, 3, 1})
	inv := p.Inverse()
	for old, nw := range p {
		if inv[nw] != uint32(old) {
			t.Fatalf("inverse broken at %d", old)
		}
	}
	// p ∘ p⁻¹ = identity.
	id := p.Compose(inv)
	for i, v := range id {
		if v != uint32(i) {
			t.Fatalf("compose with inverse not identity at %d", i)
		}
	}
}

func TestRelabelPreservesStructure(t *testing.T) {
	g := diamond()
	p := Permutation([]uint32{3, 2, 1, 0}) // reverse order
	h := g.Relabel(p)
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if h.NumEdges() != g.NumEdges() {
		t.Fatalf("relabel changed |E|: %d vs %d", h.NumEdges(), g.NumEdges())
	}
	for _, e := range g.Edges() {
		if !h.HasEdge(p[e.Src], p[e.Dst]) {
			t.Errorf("edge (%d,%d) lost after relabel", e.Src, e.Dst)
		}
	}
	// Degrees transport along the permutation.
	for v := uint32(0); v < g.NumVertices(); v++ {
		if g.OutDegree(v) != h.OutDegree(p[v]) || g.InDegree(v) != h.InDegree(p[v]) {
			t.Errorf("degree of %d not preserved under relabel", v)
		}
	}
}

func TestRelabelPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Relabel with short permutation did not panic")
		}
	}()
	diamond().Relabel(Permutation([]uint32{0, 1}))
}

// randomPermutation builds a uniformly random permutation of n elements.
func randomPermutation(rng *rand.Rand, n uint32) Permutation {
	p := Identity(n)
	rng.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// randomGraph builds a random graph with n vertices and m edges.
func randomGraph(rng *rand.Rand, n uint32, m int) *Graph {
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{uint32(rng.Intn(int(n))), uint32(rng.Intn(int(n)))}
	}
	return FromEdges(n, edges)
}

// Property: relabeling by a random permutation is an isomorphism — edge
// count, degree multiset, and validation all hold; relabeling by the
// inverse recovers the original graph.
func TestRelabelRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := uint32(rng.Intn(60) + 2)
		g := randomGraph(rng, n, rng.Intn(300))
		p := randomPermutation(rng, n)
		h := g.Relabel(p)
		if h.Validate() != nil || h.NumEdges() != g.NumEdges() {
			return false
		}
		back := h.Relabel(p.Inverse())
		return back.Equal(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: Inverse is an involution and Compose respects associativity
// with identity.
func TestPermutationAlgebraProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := uint32(rng.Intn(100) + 1)
		p := randomPermutation(rng, n)
		q := randomPermutation(rng, n)
		if p.Validate() != nil {
			return false
		}
		if pp := p.Inverse().Inverse(); !equalPerm(pp, p) {
			return false
		}
		// (p ∘ q)⁻¹ == q⁻¹ ∘ p⁻¹
		lhs := p.Compose(q).Inverse()
		rhs := q.Inverse().Compose(p.Inverse())
		return equalPerm(lhs, rhs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func equalPerm(a, b Permutation) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestComposePanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Compose with mismatched lengths did not panic")
		}
	}()
	Identity(3).Compose(Identity(4))
}

// Inverse returns the inverse permutation: Inverse()[new] == old.
func (p Permutation) Inverse() Permutation {
	inv := make(Permutation, len(p))
	for old, nw := range p {
		inv[nw] = uint32(old)
	}
	return inv
}

// Compose returns the permutation that first applies p and then q:
// result[v] = q[p[v]]. Both must have the same length.
func (p Permutation) Compose(q Permutation) Permutation {
	if len(p) != len(q) {
		panic("graph: composing permutations of different sizes")
	}
	r := make(Permutation, len(p))
	for v := range p {
		r[v] = q[p[v]]
	}
	return r
}
