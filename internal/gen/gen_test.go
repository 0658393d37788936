package gen

import (
	"math"
	"testing"
	"testing/quick"

	"graphlocality/internal/graph"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := NewRNG(43)
	same := true
	a = NewRNG(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGUint32nRange(t *testing.T) {
	f := func(seed uint64, nRaw uint32) bool {
		n := nRaw%1000 + 1
		r := NewRNG(seed)
		for i := 0; i < 100; i++ {
			if r.Uint32n(n) >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGUniformity(t *testing.T) {
	r := NewRNG(99)
	const buckets = 10
	const samples = 100000
	counts := make([]int, buckets)
	for i := 0; i < samples; i++ {
		counts[r.Intn(buckets)]++
	}
	want := samples / buckets
	for i, c := range counts {
		if math.Abs(float64(c-want)) > 0.1*float64(want) {
			t.Errorf("bucket %d count %d deviates >10%% from %d", i, c, want)
		}
	}
}

func TestZipfHeavyTail(t *testing.T) {
	r := NewRNG(5)
	z := NewZipf(r, 1.2, 1000)
	counts := map[int]int{}
	for i := 0; i < 50000; i++ {
		v := z.Next()
		if v < 1 || v > 1000 {
			t.Fatalf("Zipf sample %d out of range", v)
		}
		counts[v]++
	}
	if counts[1] <= counts[10] {
		t.Error("Zipf: P(1) should dominate P(10)")
	}
	if counts[1] <= counts[100] {
		t.Error("Zipf: P(1) should dominate P(100)")
	}
}

func TestRMATBasic(t *testing.T) {
	g := RMAT(DefaultRMAT(10, 8, 1))
	if g.NumVertices() != 1024 {
		t.Fatalf("|V| = %d, want 1024", g.NumVertices())
	}
	if g.NumEdges() < 4000 {
		t.Fatalf("|E| = %d, too few (dedup should not halve 8192)", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// No self loops.
	for v := uint32(0); v < g.NumVertices(); v++ {
		if g.HasEdge(v, v) {
			t.Fatalf("self loop at %d", v)
		}
	}
}

func TestRMATDeterministic(t *testing.T) {
	a := RMAT(DefaultRMAT(9, 8, 123))
	b := RMAT(DefaultRMAT(9, 8, 123))
	if !a.Equal(b) {
		t.Error("same seed produced different RMAT graphs")
	}
	c := RMAT(DefaultRMAT(9, 8, 124))
	if a.Equal(c) {
		t.Error("different seeds produced identical RMAT graphs")
	}
}

func TestRMATSkew(t *testing.T) {
	g := RMAT(DefaultRMAT(12, 16, 2))
	// Power-law: max degree far above the average.
	avg := g.AverageDegree()
	if float64(g.MaxInDegree()) < 10*avg {
		t.Errorf("max in-degree %d not ≫ avg %.1f — degree distribution not skewed",
			g.MaxInDegree(), avg)
	}
}

func TestSocialNetworkReciprocity(t *testing.T) {
	g := SocialNetwork(12, 16, 3)
	// Count reciprocated edges among edges whose destination is a hub.
	thr := g.HubThreshold()
	var hubEdges, hubRecip uint64
	for v := uint32(0); v < g.NumVertices(); v++ {
		for _, u := range g.OutNeighbors(v) {
			if float64(g.InDegree(u)) > thr {
				hubEdges++
				if g.HasEdge(u, v) {
					hubRecip++
				}
			}
		}
	}
	if hubEdges == 0 {
		t.Fatal("no hub edges in social network")
	}
	frac := float64(hubRecip) / float64(hubEdges)
	if frac < 0.5 {
		t.Errorf("hub reciprocity %.2f < 0.5 — social hubs should be symmetric", frac)
	}
}

func TestWebGraphAsymmetricInHubs(t *testing.T) {
	g := WebGraph(DefaultWebGraph(1<<13, 8, 4))
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// In-hubs should dwarf out-hubs.
	if g.MaxInDegree() < 2*maxOutDegree(g) {
		t.Errorf("max in-degree %d not ≫ max out-degree %d", g.MaxInDegree(), maxOutDegree(g))
	}
	// Reciprocity among hub in-edges should be low.
	thr := g.HubThreshold()
	var hubEdges, hubRecip uint64
	for v := uint32(0); v < g.NumVertices(); v++ {
		for _, u := range g.OutNeighbors(v) {
			if float64(g.InDegree(u)) > thr {
				hubEdges++
				if g.HasEdge(u, v) {
					hubRecip++
				}
			}
		}
	}
	if hubEdges == 0 {
		t.Fatal("no in-hub edges in web graph")
	}
	if frac := float64(hubRecip) / float64(hubEdges); frac > 0.3 {
		t.Errorf("web graph hub reciprocity %.2f too high, want < 0.3", frac)
	}
}

func TestWebGraphDeterministic(t *testing.T) {
	a := WebGraph(DefaultWebGraph(4096, 6, 9))
	b := WebGraph(DefaultWebGraph(4096, 6, 9))
	if !a.Equal(b) {
		t.Error("same seed produced different web graphs")
	}
}

func TestErdosRenyi(t *testing.T) {
	g := ErdosRenyi(1000, 5000, 11)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() < 4500 {
		t.Errorf("|E| = %d after dedup, want close to 5000", g.NumEdges())
	}
	// Uniform graph: max degree near the mean, no hubs.
	if float64(g.MaxInDegree()) > 10*g.AverageDegree() {
		t.Errorf("ER graph has an unexpected hub: max in-degree %d", g.MaxInDegree())
	}
}

func TestPreferentialAttachment(t *testing.T) {
	g := PreferentialAttachment(4000, 4, 13)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if maxOutDegree(g) > 4 {
		t.Errorf("BA out-degree capped at k=4, got %d", maxOutDegree(g))
	}
	if float64(g.MaxInDegree()) < 5*g.AverageDegree() {
		t.Errorf("BA in-degrees not heavy-tailed: max %d, avg %.1f",
			g.MaxInDegree(), g.AverageDegree())
	}
	if tiny := PreferentialAttachment(1, 3, 1); tiny.NumVertices() != 1 {
		t.Error("n=1 BA graph wrong")
	}
}

func TestRing(t *testing.T) {
	g := Ring(10)
	if g.NumEdges() != 10 {
		t.Fatalf("|E| = %d, want 10", g.NumEdges())
	}
	for v := uint32(0); v < 10; v++ {
		if g.OutDegree(v) != 1 || g.InDegree(v) != 1 {
			t.Fatalf("ring degree wrong at %d", v)
		}
	}
}

func TestStar(t *testing.T) {
	g := Star(100)
	if g.InDegree(0) != 99 {
		t.Fatalf("star centre in-degree = %d, want 99", g.InDegree(0))
	}
	if float64(g.InDegree(0)) <= g.HubThreshold() {
		t.Error("star centre should be an in-hub")
	}
	if empty := Star(0); empty.NumVertices() != 0 {
		t.Error("Star(0) not empty")
	}
}

func TestGrid(t *testing.T) {
	g := Grid(4, 5)
	if g.NumVertices() != 20 {
		t.Fatalf("|V| = %d, want 20", g.NumVertices())
	}
	// Edges: right = 4*(5-1) = 16, down = (4-1)*5 = 15.
	if g.NumEdges() != 31 {
		t.Fatalf("|E| = %d, want 31", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// maxOutDegree returns the largest out-degree of g.
func maxOutDegree(g *graph.Graph) uint32 {
	var m uint32
	for v := uint32(0); v < g.NumVertices(); v++ {
		m = max(m, g.OutDegree(v))
	}
	return m
}
