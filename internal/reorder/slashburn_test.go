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
	origMax := und.MaxOutDegree()
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
