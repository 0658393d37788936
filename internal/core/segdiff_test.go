package core

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"graphlocality/internal/cachesim"
	"graphlocality/internal/gen"
	"graphlocality/internal/graph"
	"graphlocality/internal/obs"
	"graphlocality/internal/trace"
)

// The segmented differential wall: a SegGraph-backed SimulateSpMV must
// produce a SimResult deeply equal to SimulateSpMVReference on the same
// graph held in RAM — for every policy, direction, prefetch and snapshot
// setting, at segment sizes from one vertex per segment to the whole
// graph in one segment, and under tiny cache budgets that force constant
// decode/evict churn. Storage representation must be invisible to the
// simulation: addresses are functions of absolute indices only, and
// block boundaries cannot move results (AccessBatch is cut-invariant,
// ECS snapshots split blocks at exact access counts).

// openSeg writes g segmented and opens it back; the cleanup closes it.
func openSeg(t *testing.T, g *graph.Graph, segVerts int, cacheBytes int64, rec obs.Recorder) *graph.SegGraph {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.segcsr")
	if _, err := graph.WriteSegmented(g, path, graph.SegmentedOptions{SegmentVertices: segVerts}); err != nil {
		t.Fatalf("WriteSegmented: %v", err)
	}
	sg, err := graph.OpenSegmented(path, graph.SegmentedOptions{CacheBytes: cacheBytes, Obs: rec})
	if err != nil {
		t.Fatalf("OpenSegmented: %v", err)
	}
	t.Cleanup(func() { sg.Close() })
	return sg
}

func assertSegSameResult(t *testing.T, name string, g *graph.Graph, sg *graph.SegGraph, opts SimOptions) {
	t.Helper()
	ref := SimulateSpMVReference(g, opts)
	got := SimulateSpMV(sg, opts)
	if !reflect.DeepEqual(ref, got) {
		t.Errorf("%s: segment-backed result diverges from in-RAM scalar reference\nscalar:    %+v\nsegmented: %+v", name, ref, got)
	}
	if err := sg.Err(); err != nil {
		t.Fatalf("%s: SegGraph latched error: %v", name, err)
	}
}

// segSizes returns the segment geometries the wall sweeps: pathological
// 1-vertex segments, a small prime, and a single segment covering the
// whole graph.
func segSizes(g *graph.Graph) []int {
	return []int{1, 37, int(g.NumVertices()) + 1}
}

// TestSegmentedBackedMatchesScalarGrid is the core wall: policy ×
// direction × prefetch × segment size.
func TestSegmentedBackedMatchesScalarGrid(t *testing.T) {
	g := gen.SocialNetwork(9, 8, 1)
	cfg := cachesim.ScaledL3(g.NumVertices(), cachesim.DefaultVertexCacheFraction)
	dirs := []trace.Direction{trace.Pull, trace.Push, trace.PushRead}
	policies := []cachesim.Policy{cachesim.LRU, cachesim.SRRIP, cachesim.BRRIP, cachesim.DRRIP}
	for _, segVerts := range segSizes(g) {
		sg := openSeg(t, g, segVerts, 0, nil)
		for _, dir := range dirs {
			for _, pol := range policies {
				for _, prefetch := range []bool{false, true} {
					c := cfg
					c.Policy = pol
					c.NextLinePrefetch = prefetch
					name := fmt.Sprintf("seg=%d/%s/%s/prefetch=%v", segVerts, dir, pol, prefetch)
					assertSegSameResult(t, name, g, sg, SimOptions{Direction: dir, Cache: c})
				}
			}
		}
	}
}

// TestSegmentedBackedMatchesScalarSnapshots: ECS snapshot points land
// mid-span and mid-segment; the scan must still happen at exactly the
// scalar access counts.
func TestSegmentedBackedMatchesScalarSnapshots(t *testing.T) {
	g := gen.ErdosRenyi(600, 4800, 2)
	for _, segVerts := range segSizes(g) {
		sg := openSeg(t, g, segVerts, 0, nil)
		for _, every := range []int{997, 4096} {
			name := fmt.Sprintf("seg=%d/snapshot=%d", segVerts, every)
			assertSegSameResult(t, name, g, sg, SimOptions{SnapshotEvery: every})
		}
	}
}

// TestSegmentedBackedMatchesScalarPerVertex pins per-vertex attribution
// through the record (non-columnar) stream path.
func TestSegmentedBackedMatchesScalarPerVertex(t *testing.T) {
	g := gen.WebGraph(gen.DefaultWebGraph(1<<9, 6, 3))
	for _, segVerts := range segSizes(g) {
		sg := openSeg(t, g, segVerts, 0, nil)
		for _, dir := range []trace.Direction{trace.Pull, trace.Push} {
			name := fmt.Sprintf("seg=%d/%s/pervertex", segVerts, dir)
			assertSegSameResult(t, name, g, sg, SimOptions{Direction: dir, PerVertex: true})
		}
	}
}

// TestSegmentedBackedMatchesScalarThreads exercises the emulated-
// parallel interleaved stream, whose partition boundaries must be
// representation-identical for the interleaving to match.
func TestSegmentedBackedMatchesScalarThreads(t *testing.T) {
	g := gen.SocialNetwork(9, 8, 1)
	for _, segVerts := range segSizes(g) {
		sg := openSeg(t, g, segVerts, 0, nil)
		for _, threads := range []int{2, 4} {
			name := fmt.Sprintf("seg=%d/threads=%d", segVerts, threads)
			assertSegSameResult(t, name, g, sg, SimOptions{Threads: threads, Interval: 512})
		}
	}
}

// TestSegmentedBackedKitchenSink combines everything at once on a tiny
// cache budget.
func TestSegmentedBackedKitchenSink(t *testing.T) {
	g := gen.SocialNetwork(9, 8, 1)
	cfg := cachesim.ScaledL3(g.NumVertices(), cachesim.DefaultVertexCacheFraction)
	cfg.NextLinePrefetch = true
	tlb := cachesim.TLBConfig{PageSize: 4096, Entries: 64, Ways: 4}
	sg := openSeg(t, g, 37, 4<<10, nil)
	assertSegSameResult(t, "kitchen-sink", g, sg, SimOptions{
		Direction:     trace.Push,
		Cache:         cfg,
		TLB:           &tlb,
		SnapshotEvery: 1009,
		PerVertex:     true,
	})
}

// TestSegmentedBackedVariants pins the segmented-stream and NUMA
// simulations to their in-RAM results: same Topology contract, same
// numbers.
func TestSegmentedBackedVariants(t *testing.T) {
	g := gen.SocialNetwork(9, 8, 1)
	cfg := smallCache()
	for _, segVerts := range segSizes(g) {
		sg := openSeg(t, g, segVerts, 0, nil)
		opts := SimOptions{Cache: cfg, Threads: 4, Interval: 256}
		wantSeg := SimulateSpMVSegmented(g, opts, 4)
		gotSeg := SimulateSpMVSegmented(sg, opts, 4)
		if gotSeg != wantSeg {
			t.Errorf("seg=%d: SimulateSpMVSegmented diverged: %+v vs %+v", segVerts, gotSeg, wantSeg)
		}
		wantNUMA := SimulateSpMVNUMA(g, opts, 2)
		gotNUMA := SimulateSpMVNUMA(sg, opts, 2)
		if !reflect.DeepEqual(gotNUMA, wantNUMA) {
			t.Errorf("seg=%d: SimulateSpMVNUMA diverged: %+v vs %+v", segVerts, gotNUMA, wantNUMA)
		}
		wantUtil := mustLineUtilization(t, g, cfg)
		gotUtil := mustLineUtilization(t, sg, cfg)
		if !reflect.DeepEqual(gotUtil, wantUtil) {
			t.Errorf("seg=%d: LineUtilization diverged", segVerts)
		}
		if err := sg.Err(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSegmentedBudgetBoundedEndToEnd is the acceptance criterion: a full
// simulation over a segment-backed graph under a deliberately tiny
// decoded-segment budget completes, matches the in-RAM result exactly,
// and the obs gauges prove peak resident segment bytes never exceeded
// the budget.
func TestSegmentedBudgetBoundedEndToEnd(t *testing.T) {
	g := gen.WebGraph(gen.DefaultWebGraph(1<<10, 6, 3))
	reg := obs.NewRegistry()
	budget := int64(4 << 10) // far below the graph's decoded size
	if decoded := int64(len(g.OutOffsets())*8 + len(g.OutEdges())*4); decoded < 4*budget {
		t.Fatalf("test graph too small (%d decoded bytes) to stress budget %d", decoded, budget)
	}
	sg := openSeg(t, g, 64, budget, reg)
	assertSegSameResult(t, "budget-bounded", g, sg, SimOptions{PerVertex: true, SnapshotEvery: 4096})

	if _, peak, _ := sg.CacheStats(); peak > budget {
		t.Fatalf("peak resident %d exceeds budget %d", peak, budget)
	}
	if gPeak := reg.Gauge("segcsr.cache.peak_bytes").Value(); gPeak > float64(budget) || gPeak <= 0 {
		t.Fatalf("obs peak gauge %v out of (0, %d]", gPeak, budget)
	}
	if reg.Counter("segcsr.cache.evictions").Value() == 0 {
		t.Fatal("budget-bounded run recorded no evictions — budget not exercised")
	}
}
