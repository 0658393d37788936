package reorder

import (
	"testing"

	"graphlocality/internal/gen"
	"graphlocality/internal/graph"
)

// The §VIII-C extensions: the RO+GO hybrid and the cache-aware RA
// variants.

func TestHybridValidOnAllShapes(t *testing.T) {
	for name, g := range testGraphs() {
		perm := Perm(MustNew("hybrid"), g)
		if uint32(len(perm)) != g.NumVertices() {
			t.Errorf("%s: perm length %d", name, len(perm))
			continue
		}
		if err := perm.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestHybridPlacesLDVBeforeHubs(t *testing.T) {
	g := gen.WebGraph(gen.DefaultWebGraph(2048, 8, 3))
	und := g.Undirected()
	thr := g.HubThreshold()
	perm := Perm(MustNew("hybrid"), g)
	var maxLDV, minHub uint32
	minHub = ^uint32(0)
	sawHub := false
	for v := uint32(0); v < g.NumVertices(); v++ {
		if float64(und.OutDegree(v)) > thr {
			sawHub = true
			if perm[v] < minHub {
				minHub = perm[v]
			}
		} else if perm[v] > maxLDV {
			maxLDV = perm[v]
		}
	}
	if !sawHub {
		t.Skip("no hubs in this instance")
	}
	if minHub <= maxLDV {
		t.Errorf("hub block (min ID %d) overlaps LDV block (max ID %d)", minHub, maxLDV)
	}
}

func TestHybridName(t *testing.T) {
	if MustNew("hybrid").Name() != "RO+GO" {
		t.Errorf("Name = %q", MustNew("hybrid").Name())
	}
	if alg, err := New("hybrid"); err != nil || alg.Name() != "RO+GO" {
		t.Errorf("New(hybrid) = %v, %v", alg, err)
	}
}

func TestSlashBurnCacheAwareStopsEarly(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(12, 8, 19))
	// A tiny cache budget: only ~64 hub entries fit -> at most a couple
	// of iterations with k = 0.02*4096 ≈ 81.
	ca := MustNew("sb:cachebytes=512").(*SlashBurn)
	perm := Perm(ca, g)
	if err := perm.Validate(); err != nil {
		t.Fatal(err)
	}
	if ca.Name() != "SB-CA" {
		t.Errorf("Name = %q", ca.Name())
	}
	full := MustNew("sb").(*SlashBurn)
	Perm(full, g)
	if ca.Iterations() > full.Iterations() {
		t.Errorf("cache-aware SB ran %d iterations, full SB %d", ca.Iterations(), full.Iterations())
	}
	if ca.Iterations() > 3 {
		t.Errorf("cache budget of 64 hubs should stop within ~2 iterations, ran %d", ca.Iterations())
	}
}

func TestRabbitOrderCommunityCap(t *testing.T) {
	g := gen.WebGraph(gen.DefaultWebGraph(4096, 8, 11))
	capped := MustNew("ro:cachebytes=256") // communities of at most 32 vertices
	perm := Perm(capped, g)
	if err := perm.Validate(); err != nil {
		t.Fatal(err)
	}
	if capped.Name() != "RO-CA" {
		t.Errorf("Name = %q", capped.Name())
	}
}

func TestRabbitOrderCapLimitsCommunities(t *testing.T) {
	// Two 6-cliques bridged: uncapped RO merges each clique into one
	// community; a cap of 3 must keep every dendrogram tree ≤ 3 vertices.
	edges := []graph.Edge{}
	clique := func(lo uint32) {
		for i := lo; i < lo+6; i++ {
			for j := lo; j < lo+6; j++ {
				if i != j {
					edges = append(edges, graph.Edge{Src: i, Dst: j})
				}
			}
		}
	}
	clique(0)
	clique(6)
	g := graph.FromEdges(12, edges)

	capped := &RabbitOrder{MaxCommunitySize: 3}
	if err := Perm(capped, g).Validate(); err != nil {
		t.Fatal(err)
	}
	var total uint32
	for _, s := range capped.CommunitySizes() {
		if s > 3 {
			t.Fatalf("community of size %d exceeds cap 3", s)
		}
		total += s
	}
	if total != g.NumVertices() {
		t.Fatalf("community sizes sum to %d, want %d", total, g.NumVertices())
	}
	// Sanity: uncapped RO does form larger communities here.
	un := MustNew("ro").(*RabbitOrder)
	Perm(un, g)
	maxUn := uint32(0)
	for _, s := range un.CommunitySizes() {
		if s > maxUn {
			maxUn = s
		}
	}
	if maxUn <= 3 {
		t.Fatalf("uncapped RO max community %d — fixture premise broken", maxUn)
	}
}
