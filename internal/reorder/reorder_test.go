package reorder

import (
	"testing"
	"testing/quick"

	"graphlocality/internal/gen"
	"graphlocality/internal/graph"
)

// allAlgorithms returns one instance of every algorithm for generic tests.
func allAlgorithms() []Algorithm {
	return []Algorithm{
		Identity{},
		Random{Seed: 1},
		DegreeSort{},
		HubSort{},
		HubCluster{},
		DBG{},
		RCM{},
		BFSOrder{},
		MustNew("sb"),
		MustNew("sb++"),
		MustNew("go"),
		MustNew("ro"),
		MustNew("ro:edr=1-100"),
	}
}

// testGraphs returns a variety of structures every algorithm must handle.
func testGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"empty":    graph.FromEdges(0, nil),
		"single":   graph.FromEdges(1, nil),
		"isolated": graph.FromEdges(5, nil),
		"ring":     gen.Ring(50),
		"star":     gen.Star(60),
		"grid":     gen.Grid(8, 8),
		"er":       gen.ErdosRenyi(200, 800, 7),
		"rmat":     gen.RMAT(gen.DefaultRMAT(8, 8, 3)),
		"web":      gen.WebGraph(gen.DefaultWebGraph(512, 6, 5)),
		"twocomp":  graph.FromEdges(6, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 3, Dst: 4}, {Src: 4, Dst: 5}}),
	}
}

// TestAllAlgorithmsProduceValidPermutations is the master safety net:
// every algorithm on every graph shape must return a bijection.
func TestAllAlgorithmsProduceValidPermutations(t *testing.T) {
	for gname, g := range testGraphs() {
		for _, alg := range allAlgorithms() {
			perm := Perm(alg, g)
			if uint32(len(perm)) != g.NumVertices() {
				t.Errorf("%s on %s: perm length %d, want %d", alg.Name(), gname, len(perm), g.NumVertices())
				continue
			}
			if err := perm.Validate(); err != nil {
				t.Errorf("%s on %s: %v", alg.Name(), gname, err)
			}
		}
	}
}

// TestAllAlgorithmsDeterministic: same input, same output.
func TestAllAlgorithmsDeterministic(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(9, 8, 11))
	for _, alg := range allAlgorithms() {
		a := Perm(alg, g)
		b := Perm(alg, g)
		if !equalPerm(a, b) {
			t.Errorf("%s is nondeterministic", alg.Name())
		}
	}
}

func equalPerm(a, b graph.Permutation) bool {
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

func TestIdentity(t *testing.T) {
	g := gen.Ring(10)
	perm := Perm(Identity{}, g)
	for i, v := range perm {
		if v != uint32(i) {
			t.Fatal("identity is not identity")
		}
	}
}

func TestRandomSeedsDiffer(t *testing.T) {
	g := gen.Ring(100)
	a := Perm(Random{Seed: 1}, g)
	b := Perm(Random{Seed: 2}, g)
	if equalPerm(a, b) {
		t.Error("different seeds produced the same shuffle")
	}
}

func TestDegreeSortOrdersByDegree(t *testing.T) {
	g := gen.Star(50) // vertex 0 has the highest total degree
	perm := Perm(DegreeSort{}, g)
	if perm[0] != 0 {
		t.Errorf("star centre got new ID %d, want 0", perm[0])
	}
	// New IDs must be non-increasing in degree: check via inverse.
	inv := inverse(perm)
	deg := g.TotalDegrees()
	for i := 1; i < len(inv); i++ {
		if deg[inv[i-1]] < deg[inv[i]] {
			t.Fatalf("degree order violated at rank %d", i)
		}
	}
}

func TestHubSortKeepsNonHubOrder(t *testing.T) {
	g := gen.Star(50)
	perm := Perm(HubSort{}, g)
	if perm[0] != 0 {
		t.Errorf("hub got ID %d, want 0", perm[0])
	}
	// Leaves (1..49) keep relative order after the single hub.
	for v := uint32(1); v < 50; v++ {
		if perm[v] != v {
			t.Fatalf("leaf %d got ID %d, want %d", v, perm[v], v)
		}
	}
}

func TestHubClusterKeepsRelativeOrders(t *testing.T) {
	// Graph where vertices 3 and 7 are hubs.
	edges := []graph.Edge{}
	for i := uint32(0); i < 10; i++ {
		if i != 3 {
			edges = append(edges, graph.Edge{Src: 3, Dst: i})
		}
		if i != 7 {
			edges = append(edges, graph.Edge{Src: 7, Dst: i})
		}
	}
	g := graph.FromEdges(10, edges)
	perm := Perm(HubCluster{}, g)
	if perm[3] != 0 || perm[7] != 1 {
		t.Errorf("hubs got IDs %d,%d, want 0,1 in relative order", perm[3], perm[7])
	}
}

func TestDBGGroupsByDegree(t *testing.T) {
	g := gen.Star(100)
	perm := Perm(DBG{}, g)
	if perm[0] != 0 {
		t.Errorf("highest-degree group should come first; centre got %d", perm[0])
	}
	inv := inverse(perm)
	deg := g.TotalDegrees()
	// Group of inv[i] must be non-increasing.
	grp := func(d uint32) int {
		gid := 0
		for d > 0 {
			d >>= 1
			gid++
		}
		return gid
	}
	for i := 1; i < len(inv); i++ {
		if grp(deg[inv[i-1]]) < grp(deg[inv[i]]) {
			t.Fatalf("DBG group order violated at rank %d", i)
		}
	}
}

func TestRCMReducesBandwidth(t *testing.T) {
	// A ring with scattered IDs: RCM should give a low-bandwidth chain.
	g := gen.Ring(64)
	scattered := g.Relabel(Perm(Random{Seed: 9}, g))
	perm := Perm(RCM{}, scattered)
	h := scattered.Relabel(perm)
	bandwidth := func(g *graph.Graph) uint32 {
		var maxGap uint32
		for _, e := range g.Edges() {
			gap := e.Src - e.Dst
			if e.Dst > e.Src {
				gap = e.Dst - e.Src
			}
			if gap > maxGap {
				maxGap = gap
			}
		}
		return maxGap
	}
	if bw, orig := bandwidth(h), bandwidth(scattered); bw >= orig {
		t.Errorf("RCM bandwidth %d not below scattered %d", bw, orig)
	}
}

func TestRegistry(t *testing.T) {
	names := []string{"identity", "initial", "bl", "random", "degsort", "degree",
		"hubsort", "hubcluster", "dbg", "rcm", "bfs", "sb", "slashburn", "sb++",
		"slashburn++", "go", "gorder", "ro", "rabbit", "rabbitorder"}
	for _, n := range names {
		alg, err := New(n)
		if err != nil {
			t.Errorf("New(%q): %v", n, err)
			continue
		}
		if alg.Name() == "" {
			t.Errorf("New(%q): empty name", n)
		}
	}
	if _, err := New("bogus"); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestRunMeasures(t *testing.T) {
	g := gen.ErdosRenyi(500, 2000, 3)
	res := Run(DegreeSort{}, g)
	if res.Algorithm != "DegSort" {
		t.Errorf("Algorithm = %q", res.Algorithm)
	}
	if err := res.Perm.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Elapsed <= 0 {
		t.Error("Elapsed not measured")
	}
	if res.AllocBytes == 0 {
		t.Error("AllocBytes not measured")
	}
}

// Property: every algorithm yields a valid permutation on random graphs.
func TestPermutationValidityProperty(t *testing.T) {
	algs := allAlgorithms()
	f := func(seed uint64, algIdx uint8) bool {
		alg := algs[int(algIdx)%len(algs)]
		n := uint32(seed%100 + 1)
		g := gen.ErdosRenyi(n, int(seed%300), seed)
		perm := Perm(alg, g)
		return uint32(len(perm)) == g.NumVertices() && perm.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// inverse returns the inverse of a valid permutation: inverse(p)[new] == old.
func inverse(p graph.Permutation) []uint32 {
	inv := make([]uint32, len(p))
	for old, nw := range p {
		inv[nw] = uint32(old)
	}
	return inv
}
