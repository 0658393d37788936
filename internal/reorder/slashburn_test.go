package reorder

import (
	"math"
	"testing"

	"graphlocality/internal/gen"
	"graphlocality/internal/graph"
)

func TestSlashBurnHubsGetLowIDs(t *testing.T) {
	// Star + tail: the centre is the unique strongest hub and must get
	// ID 0 after the first slash.
	g := gen.Star(200)
	perm := Perm(MustNew("sb"), g)
	if perm[0] != 0 {
		t.Errorf("star centre got ID %d, want 0", perm[0])
	}
	if err := perm.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSlashBurnSpokesGetHighIDs(t *testing.T) {
	// Hub 0 fans out to a path 1-2-...-39 (which stays the GCC after the
	// hub is slashed); a small separate chain {40..44} is a spoke from the
	// first burn and must land at the top of the ID space.
	edges := []graph.Edge{}
	for i := uint32(1); i < 40; i++ {
		edges = append(edges, graph.Edge{Src: 0, Dst: i})
		if i < 39 {
			edges = append(edges, graph.Edge{Src: i, Dst: i + 1})
		}
	}
	for i := uint32(40); i < 44; i++ {
		edges = append(edges, graph.Edge{Src: i, Dst: i + 1})
	}
	g := graph.FromEdges(45, edges)
	sb := &SlashBurn{KFraction: 0.02} // k = 1: removes only vertex 0 first
	perm := Perm(sb, g)
	if err := perm.Validate(); err != nil {
		t.Fatal(err)
	}
	if perm[0] != 0 {
		t.Errorf("hub got ID %d, want 0", perm[0])
	}
	// The 5-vertex chain component is not the GCC (the 39-leaf star part
	// is), so those vertices must have IDs in the top of the range.
	for v := uint32(40); v <= 44; v++ {
		if perm[v] < 35 {
			t.Errorf("spoke vertex %d got low ID %d", v, perm[v])
		}
	}
}

// TestSlashBurnGCCIsMostEdges checks the burn keeps the component with
// the most edges (§IV-A), not the most vertices, and breaks a tie to the
// component with the smaller vertex: hub 0 splits off a 6-vertex path
// (5 edges) and a 4-clique (6 edges), or two triangles. The kept component
// takes the low IDs after the hub; the spoke takes the top ones.
func TestSlashBurnGCCIsMostEdges(t *testing.T) {
	undirected := func(n uint32, pairs [][2]uint32) *graph.Graph {
		var edges []graph.Edge
		for v := uint32(1); v < n; v++ {
			edges = append(edges, graph.Edge{Src: 0, Dst: v})
		}
		for _, p := range pairs {
			edges = append(edges, graph.Edge{Src: p[0], Dst: p[1]})
		}
		return graph.FromEdges(n, edges)
	}
	cases := []struct {
		name       string
		g          *graph.Graph
		gcc, spoke []uint32
	}{
		{"clique beats longer path", undirected(11, [][2]uint32{
			{1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6},
			{7, 8}, {7, 9}, {7, 10}, {8, 9}, {8, 10}, {9, 10}}),
			[]uint32{7, 8, 9, 10}, []uint32{1, 2, 3, 4, 5, 6}},
		{"tie goes to smaller vertex", undirected(7, [][2]uint32{
			{4, 5}, {5, 6}, {6, 4}, {1, 2}, {2, 3}, {3, 1}}),
			[]uint32{1, 2, 3}, []uint32{4, 5, 6}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			perm := Perm(&SlashBurn{KFraction: 0.02}, c.g) // k = 1
			if err := perm.Validate(); err != nil {
				t.Fatal(err)
			}
			if perm[0] != 0 {
				t.Errorf("hub got ID %d, want 0", perm[0])
			}
			for _, v := range c.gcc {
				if perm[v] == 0 || perm[v] > uint32(len(c.gcc)) {
					t.Errorf("GCC vertex %d got ID %d, want 1..%d", v, perm[v], len(c.gcc))
				}
			}
			for _, v := range c.spoke {
				if perm[v] <= uint32(len(c.gcc)) {
					t.Errorf("spoke vertex %d got low ID %d", v, perm[v])
				}
			}
		})
	}
}

func TestSlashBurnIterationTrace(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 8, 21))
	var iters []int
	var sizes []int
	sb := MustNew("sb").(*SlashBurn)
	sb.OnIteration = func(iter int, gccDegrees []uint32) {
		iters = append(iters, iter)
		sizes = append(sizes, len(gccDegrees))
	}
	perm := Perm(sb, g)
	if err := perm.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(iters) == 0 {
		t.Fatal("OnIteration never called")
	}
	for i := 1; i < len(iters); i++ {
		if iters[i] != iters[i-1]+1 {
			t.Error("iteration numbers not consecutive")
		}
		if sizes[i] > sizes[i-1] {
			t.Error("GCC grew between iterations")
		}
	}
	if sb.Iterations() < len(iters) {
		t.Errorf("Iterations() = %d < observed %d", sb.Iterations(), len(iters))
	}
}

func TestSlashBurnGCCLosesPowerLaw(t *testing.T) {
	// The paper's Figure 2 observation: after a few iterations the GCC's
	// maximum degree collapses far below the original.
	g := gen.RMAT(gen.DefaultRMAT(11, 8, 5))
	und := g.Undirected()
	origMax := und.MaxInDegree()
	var lastMax uint32
	sb := MustNew("sb").(*SlashBurn)
	sb.OnIteration = func(iter int, gccDegrees []uint32) {
		if iter > 4 {
			return
		}
		lastMax = 0
		for _, d := range gccDegrees {
			if d > lastMax {
				lastMax = d
			}
		}
	}
	Perm(sb, g)
	if lastMax == 0 {
		t.Skip("graph exhausted before iteration 4")
	}
	if float64(lastMax) > 0.2*float64(origMax) {
		t.Errorf("after 4 iterations GCC max degree %d is not ≪ original %d", lastMax, origMax)
	}
}

func TestSlashBurnPPStopsEarlier(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(11, 8, 13))
	sb := MustNew("sb").(*SlashBurn)
	Perm(sb, g)
	sbpp := MustNew("sb++").(*SlashBurn)
	Perm(sbpp, g)
	if sbpp.Iterations() > sb.Iterations() {
		t.Errorf("SB++ ran %d iterations, SB ran %d — SB++ must not run longer",
			sbpp.Iterations(), sb.Iterations())
	}
	if sbpp.Iterations() == 0 {
		t.Error("SB++ never iterated")
	}
}

func TestSlashBurnPPStopRule(t *testing.T) {
	// On a hub-free graph (ring), SB++ must stop immediately: max degree 2
	// < sqrt(1000).
	g := gen.Ring(1000)
	sbpp := MustNew("sb++").(*SlashBurn)
	perm := Perm(sbpp, g)
	if err := perm.Validate(); err != nil {
		t.Fatal(err)
	}
	if sbpp.Iterations() != 1 {
		t.Errorf("SB++ on ring ran %d iterations, want 1 (immediate stop)", sbpp.Iterations())
	}
	if math.Sqrt(1000) <= 2 {
		t.Fatal("test premise broken")
	}
}

func TestSlashBurnMaxIterations(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 8, 17))
	sb := &SlashBurn{KFraction: 0.001, MaxIterations: 3}
	perm := Perm(sb, g)
	if err := perm.Validate(); err != nil {
		t.Fatal(err)
	}
	if sb.Iterations() > 4 {
		t.Errorf("iteration bound ignored: %d", sb.Iterations())
	}
}

func TestSlashBurnTinyGraphs(t *testing.T) {
	for _, n := range []uint32{0, 1, 2, 3} {
		g := gen.Ring(n)
		perm := Perm(MustNew("sb"), g)
		if uint32(len(perm)) != n {
			t.Fatalf("n=%d: perm length %d", n, len(perm))
		}
		if err := perm.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}
