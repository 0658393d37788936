package core

import (
	"fmt"
	"testing"

	"graphlocality/internal/cachesim"
	"graphlocality/internal/graph"
	"graphlocality/internal/trace"
)

// The closed-form metamorphic check: one SpMV iteration issues exactly
// 3|V| + 2|E| accesses (two offsets reads and one own-data access per
// vertex, an edges read and a neighbour-data access per edge) and touches
// 24|V| + 12|E| bytes (8-byte offsets and vertex data, 4-byte edges),
// whatever the cache, direction, interleaving or graph representation.
// The expected values come from |V| and |E| alone — not from
// trace.CountAccesses or the generator's EdgeReads column — so a slip in
// the column accounting cannot pass both this test and the differential
// walls, which compare two paths that share that accounting's inputs.

// closedFormOptions returns every option set of the differential grid:
// direction × policy × prefetch, per-vertex attribution, snapshots at the
// grid's strides, the TLB, emulated threads and the kitchen sink.
func closedFormOptions(g graph.Dims) map[string]SimOptions {
	sets := map[string]SimOptions{}
	cfg := cachesim.ScaledL3(g.NumVertices(), cachesim.DefaultVertexCacheFraction)
	tlb := cachesim.TLBConfig{PageSize: 4096, Entries: 64, Ways: 4}
	for _, dir := range []trace.Direction{trace.Pull, trace.Push, trace.PushRead} {
		for _, pol := range []cachesim.Policy{cachesim.LRU, cachesim.SRRIP, cachesim.BRRIP, cachesim.DRRIP} {
			for _, prefetch := range []bool{false, true} {
				c := cfg
				c.Policy, c.NextLinePrefetch = pol, prefetch
				sets[fmt.Sprintf("%s/%s/prefetch=%v", dir, pol, prefetch)] = SimOptions{Direction: dir, Cache: c}
			}
		}
		sets[fmt.Sprintf("%s/pervertex", dir)] = SimOptions{Direction: dir, PerVertex: true}
		sets[fmt.Sprintf("%s/threads=3", dir)] = SimOptions{Direction: dir, Threads: 3, Interval: 37}
	}
	for _, every := range []int{1, 997, 4096, 5000} {
		sets[fmt.Sprintf("snapshot=%d", every)] = SimOptions{SnapshotEvery: every}
	}
	sets["tlb"] = SimOptions{TLB: &tlb}
	for _, threads := range []int{2, 4} {
		sets[fmt.Sprintf("threads=%d", threads)] = SimOptions{Threads: threads, Interval: 512}
	}
	sets["pervertex/tlb"] = SimOptions{PerVertex: true, TLB: &tlb, SnapshotEvery: 1009}
	prefetch := cfg
	prefetch.NextLinePrefetch = true
	sets["kitchen-sink"] = SimOptions{Direction: trace.Push, Cache: prefetch, TLB: &tlb, SnapshotEvery: 1009, PerVertex: true}
	return sets
}

// checkClosedForm asserts the closed form on one result.
func checkClosedForm(t *testing.T, name string, g graph.Dims, res SimResult) {
	t.Helper()
	n, m := uint64(g.NumVertices()), g.NumEdges()
	if want := 3*n + 2*m; res.Cache.Accesses != want {
		t.Errorf("%s: %d cache accesses, want 3|V|+2|E| = %d", name, res.Cache.Accesses, want)
	}
	if want := 24*n + 12*m; res.BytesTouched != want {
		t.Errorf("%s: %d bytes touched, want 24|V|+12|E| = %d", name, res.BytesTouched, want)
	}
	if res.TLB != (cachesim.Stats{}) && res.TLB.Accesses != 3*n+2*m {
		t.Errorf("%s: %d TLB accesses, want %d", name, res.TLB.Accesses, 3*n+2*m)
	}
}

func TestClosedFormAccessCounts(t *testing.T) {
	for gname, g := range diffGraphs() {
		n, m := uint64(g.NumVertices()), g.NumEdges()
		for oname, opts := range closedFormOptions(g) {
			name := gname + "/" + oname
			checkClosedForm(t, name+"/fast", g, SimulateSpMV(g, opts))
			checkClosedForm(t, name+"/reference", g, SimulateSpMVReference(g, opts))
			if seg := SimulateSpMVSegmented(g, opts, 3); seg.Accesses != 3*n+2*m {
				t.Errorf("%s: segmented run covers %d accesses, want %d", name, seg.Accesses, 3*n+2*m)
			}
		}
	}
}

func TestClosedFormAccessCountsSegmentBacked(t *testing.T) {
	g := diffGraphs()["rmat"]
	n, m := uint64(g.NumVertices()), g.NumEdges()
	for _, segVerts := range []int{1, 37} {
		sg := openSeg(t, g, segVerts, 0, nil)
		for oname, opts := range closedFormOptions(sg) {
			name := fmt.Sprintf("seg=%d/%s", segVerts, oname)
			checkClosedForm(t, name, sg, SimulateSpMV(sg, opts))
			if seg := SimulateSpMVSegmented(sg, opts, 3); seg.Accesses != 3*n+2*m {
				t.Errorf("%s: segmented run covers %d accesses, want %d", name, seg.Accesses, 3*n+2*m)
			}
		}
		if err := sg.Err(); err != nil {
			t.Fatalf("seg=%d: SegGraph latched error: %v", segVerts, err)
		}
	}
}
