package core

import (
	"testing"

	"graphlocality/internal/cachesim"
	"graphlocality/internal/gen"
	"graphlocality/internal/reorder"
	"graphlocality/internal/trace"
)

func smallCache() cachesim.Config {
	return cachesim.Config{Name: "L3", LineSize: 64, Sets: 64, Ways: 8, Policy: cachesim.DRRIP}
}

func TestSimulateSpMVBasicCounts(t *testing.T) {
	g := gen.ErdosRenyi(2000, 10000, 1)
	res := SimulateSpMV(g, SimOptions{Cache: smallCache(), PerVertex: true})
	if res.Cache.Accesses != trace.CountAccesses(g) {
		t.Errorf("cache accesses %d, want %d", res.Cache.Accesses, trace.CountAccesses(g))
	}
	// Every edge contributes one vertex-data read; every vertex one write.
	var attributed uint64
	for _, a := range res.VertexAccesses {
		attributed += uint64(a)
	}
	if attributed != g.NumEdges() {
		t.Errorf("attributed accesses %d, want |E| %d", attributed, g.NumEdges())
	}
	for v, m := range res.VertexMisses {
		if m > res.VertexAccesses[v] {
			t.Fatalf("vertex %d: misses %d > accesses %d", v, m, res.VertexAccesses[v])
		}
	}
}

func TestSimulateSpMVPerVertexMatchesOutDegree(t *testing.T) {
	g := gen.ErdosRenyi(500, 3000, 2)
	res := SimulateSpMV(g, SimOptions{Cache: smallCache(), PerVertex: true})
	for v := uint32(0); v < g.NumVertices(); v++ {
		if res.VertexAccesses[v] != g.OutDegree(v) {
			t.Fatalf("vertex %d attributed %d accesses, want out-degree %d",
				v, res.VertexAccesses[v], g.OutDegree(v))
		}
		// Processing attribution: each vertex issues one random access per
		// in-neighbour in a pull traversal.
		if res.DestAccesses[v] != g.InDegree(v) {
			t.Fatalf("vertex %d processing-attributed %d accesses, want in-degree %d",
				v, res.DestAccesses[v], g.InDegree(v))
		}
		if res.DestMisses[v] > res.DestAccesses[v] {
			t.Fatalf("vertex %d: dest misses exceed accesses", v)
		}
	}
	// Both attributions cover the same access population.
	var owner, dest uint64
	for v := range res.VertexMisses {
		owner += uint64(res.VertexMisses[v])
		dest += uint64(res.DestMisses[v])
	}
	if owner != dest {
		t.Fatalf("owner-attributed misses %d != dest-attributed %d", owner, dest)
	}
}

func TestProcessingMissRateHubsElevated(t *testing.T) {
	// §VI-D: processing in-hubs misses more than processing LDV because a
	// hub's many neighbours cannot all be cached. Use a web graph whose
	// in-hubs have random in-neighbour sets.
	g := gen.WebGraph(gen.DefaultWebGraph(1<<13, 8, 2))
	res := SimulateSpMV(g, SimOptions{
		Cache:     cachesim.Config{Name: "L3", LineSize: 64, Sets: 32, Ways: 8, Policy: cachesim.DRRIP},
		PerVertex: true,
	})
	dist := ProcessingMissRateByDegree(res, g.InDegrees())
	ne := dist.NonEmpty()
	if len(ne) < 3 {
		t.Skip("too few degree bins")
	}
	lowBin := ne[1] // skip the degree-0/1 bin
	highBin := ne[len(ne)-1]
	if dist.Mean(highBin) <= dist.Mean(lowBin) {
		t.Errorf("hub processing miss rate %.1f%% not above LDV %.1f%%",
			dist.Mean(highBin), dist.Mean(lowBin))
	}
}

func TestSimulateSpMVWithTLBAndECS(t *testing.T) {
	g := gen.ErdosRenyi(2000, 10000, 3)
	tlbCfg := cachesim.TLBConfig{PageSize: 4096, Entries: 64, Ways: 4}
	res := SimulateSpMV(g, SimOptions{
		Cache:         smallCache(),
		TLB:           &tlbCfg,
		SnapshotEvery: 1000,
	})
	if res.TLB.Accesses == 0 {
		t.Error("TLB not driven")
	}
	if res.Snapshots == 0 {
		t.Error("no ECS snapshots taken")
	}
	if res.ECS <= 0 || res.ECS > 100 {
		t.Errorf("ECS = %.2f out of range", res.ECS)
	}
}

func TestSimulateSpMVParallelSameMissBallpark(t *testing.T) {
	// Interleaved parallel simulation changes ordering, not magnitude:
	// total accesses identical; misses within a reasonable band.
	g := gen.ErdosRenyi(2000, 10000, 4)
	seq := SimulateSpMV(g, SimOptions{Cache: smallCache(), Threads: 1})
	par := SimulateSpMV(g, SimOptions{Cache: smallCache(), Threads: 4, Interval: 256})
	if seq.Cache.Accesses != par.Cache.Accesses {
		t.Errorf("access counts differ: %d vs %d", seq.Cache.Accesses, par.Cache.Accesses)
	}
	lo, hi := seq.Cache.Misses/2, seq.Cache.Misses*2
	if par.Cache.Misses < lo || par.Cache.Misses > hi {
		t.Errorf("parallel misses %d far from sequential %d", par.Cache.Misses, seq.Cache.Misses)
	}
}

func TestSimulateDefaultsApplied(t *testing.T) {
	g := gen.Ring(100)
	res := SimulateSpMV(g, SimOptions{})
	if res.Cache.Accesses == 0 {
		t.Error("default simulation did nothing")
	}
}

func TestGoodOrderingMissesFewer(t *testing.T) {
	// A locality-destroying random shuffle must increase misses over the
	// host-structured initial order of a web graph. The cache must be
	// smaller than the vertex-data array for ordering to matter.
	g := gen.WebGraph(gen.DefaultWebGraph(1<<13, 8, 5))
	cache := cachesim.Config{Name: "L3", LineSize: 64, Sets: 32, Ways: 8, Policy: cachesim.DRRIP}
	shuffled := g.Relabel(reorder.Perm(reorder.Random{Seed: 1}, g))
	a := SimulateSpMV(g, SimOptions{Cache: cache})
	b := SimulateSpMV(shuffled, SimOptions{Cache: cache})
	if a.Cache.Misses >= b.Cache.Misses {
		t.Errorf("initial order misses %d not below shuffled %d", a.Cache.Misses, b.Cache.Misses)
	}
}

func TestMissRateByDegree(t *testing.T) {
	g := gen.WebGraph(gen.DefaultWebGraph(1<<11, 6, 6))
	res := SimulateSpMV(g, SimOptions{Cache: smallCache(), PerVertex: true})
	s := MissRateByDegree(res, g.OutDegrees())
	if len(s.NonEmpty()) == 0 {
		t.Fatal("empty distribution")
	}
	for _, i := range s.NonEmpty() {
		if r := s.Mean(i); r < 0 || r > 100 {
			t.Errorf("bin %d miss rate %.2f outside [0,100]", i, r)
		}
	}
}

func TestMissesAboveDegree(t *testing.T) {
	g := gen.WebGraph(gen.DefaultWebGraph(1<<11, 6, 7))
	res := SimulateSpMV(g, SimOptions{Cache: smallCache(), PerVertex: true})
	deg := g.OutDegrees()
	all := MissesAboveDegree(res, deg, 0)
	high := MissesAboveDegree(res, deg, 50)
	if high > all {
		t.Errorf("high-degree misses %d exceed total %d", high, all)
	}
	var totalMisses uint64
	for _, m := range res.VertexMisses {
		totalMisses += uint64(m)
	}
	if all != totalMisses {
		t.Errorf("threshold-0 misses %d != total attributed %d", all, totalMisses)
	}
}

func TestLineUtilizationOrderingsDiffer(t *testing.T) {
	// A clustered ordering touches more of each fetched line than a
	// scrambled one.
	// The cache must be far smaller than the vertex data (32 KiB here) so
	// lines are evicted between uses; only then does ordering show up in
	// per-line utilization.
	base := gen.WebGraph(gen.DefaultWebGraph(1<<12, 8, 3))
	scrambled := base.Relabel(reorder.Perm(reorder.Random{Seed: 6}, base))
	ro := scrambled.Relabel(reorder.Perm(reorder.MustNew("ro"), scrambled))
	cfg := cachesim.Config{Name: "L3", LineSize: 64, Sets: 8, Ways: 4, Policy: cachesim.DRRIP}
	sc := LineUtilization(scrambled, cfg)
	cl := LineUtilization(ro, cfg)
	if cl.MeanWords() <= sc.MeanWords() {
		t.Errorf("clustered utilization %.2f words not above scrambled %.2f",
			cl.MeanWords(), sc.MeanWords())
	}
	if sc.MeanFraction() <= 0 || sc.MeanFraction() > 1 {
		t.Errorf("fraction out of range: %v", sc.MeanFraction())
	}
	// Zero config uses the scaled default.
	if def := LineUtilization(base, cachesim.Config{}); def.Evicted == 0 {
		t.Error("default-config utilization empty")
	}
}

func TestSimulatePushAttribution(t *testing.T) {
	g := gen.ErdosRenyi(500, 3000, 8)
	res := SimulateSpMV(g, SimOptions{Cache: smallCache(), PerVertex: true, Direction: trace.Push})
	// In push, random accesses are writes to in-neighbour targets: each
	// vertex's data written in-degree times.
	for v := uint32(0); v < g.NumVertices(); v++ {
		if res.VertexAccesses[v] != g.InDegree(v) {
			t.Fatalf("vertex %d attributed %d, want in-degree %d",
				v, res.VertexAccesses[v], g.InDegree(v))
		}
	}
}
