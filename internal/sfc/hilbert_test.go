package sfc

import (
	"math"
	"testing"
	"testing/quick"

	"graphlocality/internal/cachesim"
	"graphlocality/internal/gen"
	"graphlocality/internal/graph"
	"graphlocality/internal/reorder"
	"graphlocality/internal/trace"
)

func TestHilbertRoundTrip(t *testing.T) {
	f := func(xr, yr uint32) bool {
		const order = 10
		x := xr % (1 << order)
		y := yr % (1 << order)
		d := HilbertIndex(order, x, y)
		gx, gy := HilbertPoint(order, d)
		return gx == x && gy == y
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestHilbertBijectiveSmall(t *testing.T) {
	const order = 4
	seen := make(map[uint64]bool)
	for x := uint32(0); x < 1<<order; x++ {
		for y := uint32(0); y < 1<<order; y++ {
			d := HilbertIndex(order, x, y)
			if d >= 1<<(2*order) {
				t.Fatalf("index %d out of range", d)
			}
			if seen[d] {
				t.Fatalf("index %d duplicated", d)
			}
			seen[d] = true
		}
	}
}

func TestHilbertAdjacentPointsClose(t *testing.T) {
	// Consecutive curve positions are grid neighbours (Manhattan distance 1).
	const order = 6
	px, py := HilbertPoint(order, 0)
	for d := uint64(1); d < 1<<(2*order); d++ {
		x, y := HilbertPoint(order, d)
		dist := math.Abs(float64(x)-float64(px)) + math.Abs(float64(y)-float64(py))
		if dist != 1 {
			t.Fatalf("curve jump at d=%d: (%d,%d) -> (%d,%d)", d, px, py, x, y)
		}
		px, py = x, y
	}
}

func TestOrderFor(t *testing.T) {
	cases := map[uint32]uint{0: 1, 1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 1024: 10, 1025: 11}
	for n, want := range cases {
		if got := OrderFor(n); got != want {
			t.Errorf("OrderFor(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestHilbertOrderPreservesEdgeMultiset(t *testing.T) {
	g := gen.ErdosRenyi(500, 3000, 3)
	coo := HilbertOrder(g)
	if uint64(len(coo.Edges)) != g.NumEdges() {
		t.Fatalf("edge count changed: %d vs %d", len(coo.Edges), g.NumEdges())
	}
	counts := map[graph.Edge]int{}
	for _, e := range g.Edges() {
		counts[e]++
	}
	for _, e := range coo.Edges {
		counts[e]--
	}
	for e, c := range counts {
		if c != 0 {
			t.Fatalf("edge %+v multiset broken (%d)", e, c)
		}
	}
	if coo.NumVertices() != g.NumVertices() {
		t.Error("vertex count lost")
	}
}

func TestCOOSpMVMatchesReference(t *testing.T) {
	g := gen.WebGraph(gen.DefaultWebGraph(2048, 6, 5))
	for _, coo := range []*COO{HilbertOrder(g), RowOrder(g)} {
		src := make([]float64, g.NumVertices())
		dst := make([]float64, g.NumVertices())
		for i := range src {
			src[i] = float64(i%5) + 1
		}
		coo.SpMV(src, dst)
		for v := uint32(0); v < g.NumVertices(); v++ {
			sum := 0.0
			for _, u := range g.InNeighbors(v) {
				sum += src[u]
			}
			if math.Abs(dst[v]-sum) > 1e-9 {
				t.Fatalf("dst[%d] = %v, want %v", v, dst[v], sum)
			}
		}
	}
}

func TestHilbertTraceBeatsScrambledCOO(t *testing.T) {
	// The related-work claim: Hilbert-ordered edges have far better
	// locality than arbitrarily ordered COO edges, without relabeling.
	g := gen.SocialNetwork(12, 12, 3)
	// Scramble vertex IDs so the row-order baseline carries no locality.
	g = g.Relabel(reorder.Perm(reorder.Random{Seed: 4}, g))
	cfg := cachesim.ScaledL3(g.NumVertices(), 0.04)
	l := trace.NewLayout(g)

	count := func(c *COO) uint64 {
		sim := cachesim.New(cfg)
		Trace(c, l, func(a trace.Access) { sim.Access(a.Addr, a.Write) })
		return sim.Stats().Misses
	}
	hilbert := count(HilbertOrder(g))
	// A deterministically shuffled edge order as the bad baseline.
	bad := RowOrder(g)
	rng := gen.NewRNG(9)
	rng.Shuffle(len(bad.Edges), func(i, j int) {
		bad.Edges[i], bad.Edges[j] = bad.Edges[j], bad.Edges[i]
	})
	shuffled := count(bad)
	if hilbert >= shuffled {
		t.Errorf("Hilbert misses %d not below shuffled COO %d", hilbert, shuffled)
	}
	// And it should beat plain row order on a scrambled graph too.
	row := count(RowOrder(g))
	if hilbert >= row {
		t.Errorf("Hilbert misses %d not below row-order COO %d", hilbert, row)
	}
}

// HilbertPoint is the inverse of HilbertIndex: it maps curve position d
// back to (x, y).
func HilbertPoint(order uint, d uint64) (x, y uint32) {
	t := d
	for s := uint64(1); s < uint64(1)<<order; s <<= 1 {
		rx := uint32(1) & uint32(t/2)
		ry := uint32(1) & uint32(t^uint64(rx))
		// Rotate.
		if ry == 0 {
			if rx == 1 {
				x = uint32(s) - 1 - x
				y = uint32(s) - 1 - y
			}
			x, y = y, x
		}
		x += uint32(s) * rx
		y += uint32(s) * ry
		t /= 4
	}
	return x, y
}

// SpMV performs one edge-centric SpMV iteration over the COO: for every
// edge (u,v), dst[v] += src[u]. dst must be zeroed by the caller.
func (c *COO) SpMV(src, dst []float64) {
	for _, e := range c.Edges {
		dst[e.Dst] += src[e.Src]
	}
}
