package ihtl

import (
	"math"
	"strings"
	"testing"

	"graphlocality/internal/cachesim"
	"graphlocality/internal/gen"
	"graphlocality/internal/graph"
	"graphlocality/internal/spmv"
	"graphlocality/internal/trace"
)

func build(g *graph.Graph) *Blocked {
	return Build(g, Config{CacheBytes: 1 << 14})
}

func TestBuildPartitionsEdges(t *testing.T) {
	g := gen.WebGraph(gen.DefaultWebGraph(1<<12, 8, 3))
	b := build(g)
	if b.NumHubs() == 0 {
		t.Fatal("no hubs selected on a web graph")
	}
	if b.FlippedEdges()+b.SparseEdges() != g.NumEdges() {
		t.Fatalf("flipped %d + sparse %d != |E| %d",
			b.FlippedEdges(), b.SparseEdges(), g.NumEdges())
	}
	// Hubs have no sparse in-edges; non-hubs no flipped in-edges.
	var hubIn uint64
	for _, h := range b.hubs {
		hubIn += uint64(g.InDegree(h))
	}
	if hubIn != b.FlippedEdges() {
		t.Errorf("hub in-edges %d != flipped edges %d", hubIn, b.FlippedEdges())
	}
	if !strings.Contains(b.String(), "iHTL{") {
		t.Error("String broken")
	}
}

func TestBlockBudgetRespected(t *testing.T) {
	g := gen.WebGraph(gen.DefaultWebGraph(1<<13, 8, 5))
	cacheBytes := uint64(64 * 8) // 64 accumulator entries
	b := Build(g, Config{CacheBytes: cacheBytes})
	if b.NumHubs() > 64 && b.NumBlocks() < 2 {
		t.Errorf("hub count %d exceeds one block's budget but only %d blocks",
			b.NumHubs(), b.NumBlocks())
	}
	for _, fb := range b.blocks {
		if fb.HubHi-fb.HubLo > 64 {
			t.Errorf("block holds %d hubs, budget 64", fb.HubHi-fb.HubLo)
		}
	}
}

func TestSpMVMatchesReference(t *testing.T) {
	for _, g := range []*graph.Graph{
		gen.WebGraph(gen.DefaultWebGraph(1<<12, 8, 7)),
		gen.SocialNetwork(11, 12, 7),
		gen.Star(500),
		gen.Ring(64),
		graph.FromEdges(3, nil),
	} {
		b := Build(g, Config{CacheBytes: 512 * 8})
		n := g.NumVertices()
		src := make([]float64, n)
		dst := make([]float64, n)
		want := make([]float64, n)
		for i := range src {
			src[i] = float64(i%7) + 1
		}
		b.SpMV(src, dst)
		for v := uint32(0); v < n; v++ {
			sum := 0.0
			for _, u := range g.InNeighbors(v) {
				sum += src[u]
			}
			want[v] = sum
		}
		for v := range want {
			if math.Abs(dst[v]-want[v]) > 1e-9 {
				t.Fatalf("|V|=%d: dst[%d] = %v, want %v", n, v, dst[v], want[v])
			}
		}
	}
}

func TestTraceAccessCounts(t *testing.T) {
	g := gen.WebGraph(gen.DefaultWebGraph(1<<11, 8, 9))
	b := build(g)
	l := NewLayout(b)
	var vertexReads, accWrites uint64
	Trace(b, l, func(a trace.Access) {
		switch a.Kind {
		case trace.KindVertexRead:
			vertexReads++
		case trace.KindVertexWrite:
			if a.Addr >= l.AccBase {
				accWrites++
			}
		}
	})
	if accWrites != b.FlippedEdges() {
		t.Errorf("accumulator writes %d != flipped edges %d", accWrites, b.FlippedEdges())
	}
	if vertexReads == 0 {
		t.Error("no vertex reads")
	}
}

func TestLayoutAccDisjoint(t *testing.T) {
	g := gen.Ring(1000)
	b := build(g)
	l := NewLayout(b)
	if l.AccBase <= l.NewDataAddr(999) {
		t.Error("accumulator overlaps vertex data")
	}
	if l.AccAddr(1) != l.AccAddr(0)+trace.VertexDataBytes {
		t.Error("AccAddr stride wrong")
	}
}

// The headline §VIII-A claim: on a web graph whose in-hubs defeat RAs,
// iHTL's traversal misses less than the plain pull traversal under the
// same cache.
func TestIHTLBeatsPlainPullOnWebGraph(t *testing.T) {
	g := gen.WebGraph(gen.DefaultWebGraph(1<<13, 8, 4))
	cfg := cachesim.ScaledL3(g.NumVertices(), 0.04)
	b := Build(g, Config{CacheBytes: uint64(cfg.SizeBytes() / 2)})
	if b.NumHubs() == 0 {
		t.Fatal("no hubs")
	}

	plain := cachesim.New(cfg)
	tl := trace.NewLayout(g)
	trace.Run(g, tl, trace.Whole(g, trace.Pull), func(a trace.Access) bool { plain.Access(a.Addr, a.Write); return true })

	blocked := cachesim.New(cfg)
	il := NewLayout(b)
	Trace(b, il, func(a trace.Access) { blocked.Access(a.Addr, a.Write) })

	if blocked.Stats().Misses >= plain.Stats().Misses {
		t.Errorf("iHTL misses %d not below plain pull %d",
			blocked.Stats().Misses, plain.Stats().Misses)
	}
}

func TestPageRankMatchesEngine(t *testing.T) {
	g := gen.WebGraph(gen.DefaultWebGraph(1<<11, 8, 6))
	b := Build(g, Config{CacheBytes: 256 * 8})
	got := spmv.PageRank(g, b.SpMV, 8, 0.85)
	e := spmv.New(g, 2)
	want := spmv.PageRank(g, func(src, dst []float64) { e.Pull(src, dst) }, 8, 0.85)
	for v := range want {
		if math.Abs(got[v]-want[v]) > 1e-12*(1+math.Abs(want[v])) {
			t.Fatalf("rank[%d] = %v, want %v", v, got[v], want[v])
		}
	}
	empty := graph.FromEdges(0, nil)
	if spmv.PageRank(empty, Build(empty, Config{CacheBytes: 64}).SpMV, 3, 0.85) != nil {
		t.Error("empty graph PageRank should be nil")
	}
}

func TestBuildNoHubsOnUniformGraph(t *testing.T) {
	g := gen.Ring(100)
	b := build(g)
	if b.NumHubs() != 0 {
		t.Errorf("ring has no hubs, got %d", b.NumHubs())
	}
	// SpMV still works purely through the sparse block.
	src := make([]float64, 100)
	dst := make([]float64, 100)
	for i := range src {
		src[i] = 1
	}
	b.SpMV(src, dst)
	for v, x := range dst {
		if x != 1 {
			t.Fatalf("dst[%d] = %v", v, x)
		}
	}
}
