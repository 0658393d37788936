package reorder_test

import (
	"context"
	"reflect"
	"sort"
	"sync"
	"testing"

	"graphlocality/internal/core"
	"graphlocality/internal/gen"
	"graphlocality/internal/graph"
	"graphlocality/internal/reorder"
)

// Property tests over the whole registry: every reordering algorithm, on
// every structural class the paper studies, must produce a bijective
// permutation whose relabeling preserves the graph's degree structure.
// New algorithms registered later inherit these checks for free.

// propertyGraphs builds one small graph per structural class. The scale is
// deliberately modest (2^9 vertices) so the full registry × class matrix
// stays fast under -race.
func propertyGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"social": gen.SocialNetwork(9, 8, 7),
		"web":    gen.WebGraph(gen.DefaultWebGraph(1<<9, 8, 11)),
		"er":     gen.ErdosRenyi(1<<9, (1<<9)*8, 13),
		"ba":     gen.PreferentialAttachment(1<<9, 8, 17),
	}
}

// degreeSeq returns the sorted degree sequence derived from a CSR/CSC
// offsets array — the multiset a relabeling must preserve.
func degreeSeq(off []uint64) []uint64 {
	seq := make([]uint64, len(off)-1)
	for v := range seq {
		seq[v] = off[v+1] - off[v]
	}
	sort.Slice(seq, func(i, j int) bool { return seq[i] < seq[j] })
	return seq
}

func equalSeq(a, b []uint64) bool {
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

// TestReorderProperties runs every registered algorithm on every graph
// class. Subtests run in parallel over a shared read-only graph set, so
// -race additionally proves no algorithm mutates its input graph.
func TestReorderProperties(t *testing.T) {
	graphs := propertyGraphs()
	for _, name := range reorder.List() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			alg, err := reorder.New(name)
			if err != nil {
				t.Fatalf("New(%q): %v", name, err)
			}
			for gname, g := range graphs {
				res := reorder.Run(alg, g)
				n := g.NumVertices()

				// Bijectivity: the permutation maps [0,n) onto [0,n).
				if uint32(len(res.Perm)) != n {
					t.Fatalf("%s: |perm| = %d, want %d", gname, len(res.Perm), n)
				}
				seen := make([]bool, n)
				for old, nu := range res.Perm {
					if nu >= n {
						t.Fatalf("%s: perm[%d] = %d out of range [0,%d)", gname, old, nu, n)
					}
					if seen[nu] {
						t.Fatalf("%s: perm maps two vertices to %d", gname, nu)
					}
					seen[nu] = true
				}

				// Relabeling permutes vertices; it must not create, drop or
				// rewire edges, so both degree multisets survive exactly.
				rg := g.Relabel(res.Perm)
				if rg.NumVertices() != n || rg.NumEdges() != g.NumEdges() {
					t.Fatalf("%s: relabel changed size: %d/%d vs %d/%d",
						gname, rg.NumVertices(), rg.NumEdges(), n, g.NumEdges())
				}
				if !equalSeq(degreeSeq(g.OutOffsets()), degreeSeq(rg.OutOffsets())) {
					t.Errorf("%s: out-degree multiset changed under %s", gname, name)
				}
				if !equalSeq(degreeSeq(g.InOffsets()), degreeSeq(rg.InOffsets())) {
					t.Errorf("%s: in-degree multiset changed under %s", gname, name)
				}
			}
		})
	}
}

// TestReorderDeterminism runs every registered algorithm three times
// concurrently on the same graph and requires bit-identical
// permutations. This is the registry-wide determinism property new
// algorithms inherit automatically: output must be a function of the graph
// and options alone — never of scheduling — which under -race also proves
// that internally-parallel algorithms (boba, brew's sub-runs) share no
// unsynchronized state across instances.
func TestReorderDeterminism(t *testing.T) {
	graphs := propertyGraphs()
	for _, name := range reorder.List() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for gname, g := range graphs {
				const instances = 3
				perms := make([]graph.Permutation, instances)
				errs := make([]error, instances)
				var wg sync.WaitGroup
				for i := 0; i < instances; i++ {
					alg, err := reorder.New(name)
					if err != nil {
						t.Fatalf("New(%q): %v", name, err)
					}
					wg.Add(1)
					go func(i int, alg reorder.Algorithm) {
						defer wg.Done()
						perms[i], errs[i] = alg.Reorder(context.Background(), g)
					}(i, alg)
				}
				wg.Wait()
				for i := 0; i < instances; i++ {
					if errs[i] != nil {
						t.Fatalf("%s: instance %d failed: %v", gname, i, errs[i])
					}
					if !reflect.DeepEqual(perms[0], perms[i]) {
						t.Fatalf("%s: instance %d produced a different permutation", gname, i)
					}
				}
			}
		})
	}
}

// TestAIDInvariantUnderIdentity pins the metamorphic anchor of the N2N
// AID metric (§V-A): relabeling with the identity permutation is a no-op,
// so the mean AID must be bit-identical — any drift would mean Relabel or
// AID itself depends on something besides the adjacency structure.
func TestAIDInvariantUnderIdentity(t *testing.T) {
	for gname, g := range propertyGraphs() {
		rg := g.Relabel(graph.Identity(g.NumVertices()))
		if got, want := core.MeanAID(rg), core.MeanAID(g); got != want {
			t.Errorf("%s: MeanAID changed under identity relabel: %v vs %v", gname, got, want)
		}
	}
}
