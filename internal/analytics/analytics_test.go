package analytics

import (
	"math"
	"testing"
	"testing/quick"

	"graphlocality/internal/gen"
	"graphlocality/internal/graph"
)

// ------------------------------------------------------------------ BFS

func TestBFSChain(t *testing.T) {
	g := graph.FromEdges(5, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}})
	res := BFS(g, 0)
	want := []uint32{0, 1, 2, 3, NotReached}
	for v, d := range res.Depth {
		if d != want[v] {
			t.Errorf("Depth[%d] = %d, want %d", v, d, want[v])
		}
	}
	if res.Parent[0] != graph.NoVertex {
		t.Error("source should have no parent")
	}
	if res.Parent[2] != 1 {
		t.Errorf("Parent[2] = %d", res.Parent[2])
	}
	if res.Reached() != 4 {
		t.Errorf("Reached = %d", res.Reached())
	}
}

func TestBFSMatchesReference(t *testing.T) {
	f := func(seed uint64) bool {
		n := uint32(seed%150 + 2)
		g := gen.ErdosRenyi(n, int(seed%600), seed)
		src := uint32(seed % uint64(n))
		got := BFS(g, src)
		want := referenceBFS(g, src)
		for v := range want {
			if got.Depth[v] != want[v] {
				return false
			}
		}
		// Parents must be consistent with depths.
		for v, p := range got.Parent {
			if p == graph.NoVertex {
				continue
			}
			if got.Depth[v] != got.Depth[p]+1 || !g.HasEdge(p, uint32(v)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// referenceBFS is a plain queue BFS over out-edges.
func referenceBFS(g *graph.Graph, src uint32) []uint32 {
	depth := make([]uint32, g.NumVertices())
	for i := range depth {
		depth[i] = NotReached
	}
	depth[src] = 0
	q := []uint32{src}
	for len(q) > 0 {
		v := q[0]
		q = q[1:]
		for _, u := range g.OutNeighbors(v) {
			if depth[u] == NotReached {
				depth[u] = depth[v] + 1
				q = append(q, u)
			}
		}
	}
	return depth
}

func TestBFSUsesBothDirections(t *testing.T) {
	// A social-style graph with a giant component triggers the bottom-up
	// switch once the frontier explodes.
	g := gen.SocialNetwork(12, 16, 5)
	res := BFS(g, 0)
	if res.PushSteps == 0 {
		t.Error("no top-down steps")
	}
	if res.PullSteps == 0 {
		t.Error("direction-optimizing BFS never switched to bottom-up on a social graph")
	}
	if res.PushSteps+res.PullSteps != res.Iterations {
		t.Error("step accounting inconsistent")
	}
}

func TestBFSEmptyGraph(t *testing.T) {
	g := graph.FromEdges(0, nil)
	res := BFS(g, 0)
	if len(res.Depth) != 0 {
		t.Error("empty graph should yield empty result")
	}
}

// ------------------------------------------------------------------- CC

func TestCCMatchesGraphComponents(t *testing.T) {
	f := func(seed uint64) bool {
		n := uint32(seed%120 + 1)
		g := gen.ErdosRenyi(n, int(seed%400), seed)
		wantLabels, wantK := referenceComponents(g)
		lp := ConnectedComponentsLP(g)
		th := ThriftyCC(g)
		if lp.Components != wantK || th.Components != wantK {
			return false
		}
		// Same partition: two vertices share a label iff the reference
		// agrees.
		for v := uint32(1); v < n; v++ {
			if (lp.Label[v] == lp.Label[0]) != (wantLabels[v] == wantLabels[0]) {
				return false
			}
			if (th.Label[v] == th.Label[0]) != (wantLabels[v] == wantLabels[0]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// referenceComponents labels the components of g's undirected view by
// union-find over the edge list, sharing no code with the traversals under
// test. It returns the labels and the component count.
func referenceComponents(g *graph.Graph) ([]uint32, uint32) {
	parent := make([]uint32, g.NumVertices())
	for v := range parent {
		parent[v] = uint32(v)
	}
	var find func(v uint32) uint32
	find = func(v uint32) uint32 {
		if parent[v] != v {
			parent[v] = find(parent[v])
		}
		return parent[v]
	}
	for v := uint32(0); v < g.NumVertices(); v++ {
		for _, u := range g.OutNeighbors(v) {
			parent[find(u)] = find(v)
		}
	}
	labels := make([]uint32, len(parent))
	var k uint32
	for v := range labels {
		if r := find(uint32(v)); r == uint32(v) {
			k++
		}
		labels[v] = find(uint32(v))
	}
	return labels, k
}

func TestCCLabelsAreCanonical(t *testing.T) {
	g := graph.FromEdges(6, []graph.Edge{{Src: 5, Dst: 4}, {Src: 4, Dst: 3}, {Src: 1, Dst: 0}})
	for _, res := range []CCResult{ConnectedComponentsLP(g), ThriftyCC(g)} {
		// Component {3,4,5} labels 3; {0,1} labels 0; {2} labels 2.
		if res.Label[5] != 3 || res.Label[1] != 0 || res.Label[2] != 2 {
			t.Errorf("labels = %v", res.Label)
		}
	}
}

func TestThriftyCCOnSkewedGraph(t *testing.T) {
	g := gen.SocialNetwork(12, 12, 9)
	lp := ConnectedComponentsLP(g)
	th := ThriftyCC(g)
	if lp.Components != th.Components {
		t.Errorf("component counts differ: LP %d vs Thrifty %d", lp.Components, th.Components)
	}
}

// ----------------------------------------------------------------- SSSP

func TestSSSPUnitWeightsEqualsBFS(t *testing.T) {
	g := gen.ErdosRenyi(300, 1500, 4)
	bfs := BFS(g, 7)
	sssp := SSSP(g, 7, unitWeights)
	for v := range bfs.Depth {
		bd, sd := bfs.Depth[v], sssp.Dist[v]
		if bd == NotReached {
			if sd != Unreachable {
				t.Fatalf("vertex %d: BFS unreached but SSSP %d", v, sd)
			}
			continue
		}
		if uint64(bd) != sd {
			t.Fatalf("vertex %d: BFS depth %d != SSSP dist %d", v, bd, sd)
		}
	}
}

// unitWeights weights every edge 1, making SSSP equivalent to BFS depth.
func unitWeights(u, v uint32) uint32 { return 1 }

func TestSSSPMatchesBellmanFordReference(t *testing.T) {
	f := func(seed uint64) bool {
		n := uint32(seed%80 + 2)
		g := gen.ErdosRenyi(n, int(seed%300), seed)
		w := HashWeights(9)
		src := uint32(seed % uint64(n))
		got := SSSP(g, src, w)
		want := referenceBellmanFord(g, src, w)
		for v := range want {
			if got.Dist[v] != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func referenceBellmanFord(g *graph.Graph, src uint32, w WeightFunc) []uint64 {
	n := g.NumVertices()
	dist := make([]uint64, n)
	for i := range dist {
		dist[i] = Unreachable
	}
	dist[src] = 0
	for i := uint32(0); i < n; i++ {
		changed := false
		for v := uint32(0); v < n; v++ {
			if dist[v] == Unreachable {
				continue
			}
			for _, u := range g.OutNeighbors(v) {
				if nd := dist[v] + uint64(w(v, u)); nd < dist[u] {
					dist[u] = nd
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return dist
}

func TestHashWeightsDeterministicAndBounded(t *testing.T) {
	w := HashWeights(16)
	for u := uint32(0); u < 50; u++ {
		for v := uint32(0); v < 50; v++ {
			x := w(u, v)
			if x < 1 || x > 16 {
				t.Fatalf("weight %d out of [1,16]", x)
			}
			if x != w(u, v) {
				t.Fatal("weight not deterministic")
			}
		}
	}
}

// ----------------------------------------------------------------- HITS

func TestHITSAuthoritiesOnStar(t *testing.T) {
	g := gen.Star(200) // all leaves point to vertex 0
	res := HITS(g, 20)
	for v := 1; v < 200; v++ {
		if res.Authority[0] <= res.Authority[v] {
			t.Fatalf("centre authority %v not above leaf %v", res.Authority[0], res.Authority[v])
		}
		if res.Hub[v] <= res.Hub[0] {
			t.Fatalf("leaf hub score %v not above centre %v", res.Hub[v], res.Hub[0])
		}
	}
}

func TestHITSNormalized(t *testing.T) {
	g := gen.ErdosRenyi(500, 3000, 6)
	res := HITS(g, 10)
	var a, h float64
	for v := range res.Authority {
		a += res.Authority[v] * res.Authority[v]
		h += res.Hub[v] * res.Hub[v]
	}
	if math.Abs(a-1) > 1e-9 || math.Abs(h-1) > 1e-9 {
		t.Errorf("norms = %v, %v, want 1", a, h)
	}
	if HITS(graph.FromEdges(0, nil), 3).Iterations != 0 {
		t.Error("empty graph should not iterate")
	}
}

// ----------------------------------------------------- label propagation

func TestLabelPropagationTwoCliques(t *testing.T) {
	edges := []graph.Edge{}
	clique := func(lo uint32) {
		for i := lo; i < lo+8; i++ {
			for j := lo; j < lo+8; j++ {
				if i != j {
					edges = append(edges, graph.Edge{Src: i, Dst: j})
				}
			}
		}
	}
	clique(0)
	clique(8)
	edges = append(edges, graph.Edge{Src: 0, Dst: 8}) // weak bridge
	g := graph.FromEdges(16, edges)
	res := LabelPropagation(g, 50)
	// Each clique converges to one label.
	for v := uint32(1); v < 8; v++ {
		if res.Label[v] != res.Label[0] {
			t.Errorf("clique A not uniform: %v", res.Label[:8])
			break
		}
	}
	for v := uint32(9); v < 16; v++ {
		if res.Label[v] != res.Label[8] {
			t.Errorf("clique B not uniform: %v", res.Label[8:])
			break
		}
	}
	if res.Communities > 3 {
		t.Errorf("Communities = %d, want <= 3", res.Communities)
	}
}

func TestLabelPropagationIsolated(t *testing.T) {
	g := graph.FromEdges(4, nil)
	res := LabelPropagation(g, 10)
	if res.Communities != 4 {
		t.Errorf("Communities = %d, want 4", res.Communities)
	}
}
