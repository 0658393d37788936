package core

import (
	"math"
	"testing"

	"graphlocality/internal/gen"
	"graphlocality/internal/graph"
	"graphlocality/internal/reorder"
	"graphlocality/internal/trace"
)

func TestSegmentedMatchesExactWithOneSegment(t *testing.T) {
	g := gen.WebGraph(gen.DefaultWebGraph(2048, 6, 1))
	cfg := smallCache()
	exact := SimulateSpMV(g, SimOptions{Cache: cfg, Threads: 4, Interval: 256})
	seg := SimulateSpMVSegmented(g, SimOptions{Cache: cfg, Threads: 4, Interval: 256}, 1)
	if seg.Misses != exact.Cache.Misses {
		t.Errorf("1-segment misses %d != exact %d", seg.Misses, exact.Cache.Misses)
	}
	if seg.Accesses != trace.CountAccesses(g) {
		t.Errorf("accesses = %d", seg.Accesses)
	}
}

func TestSegmentedErrorBounded(t *testing.T) {
	// The paper reports ~15% absolute error for its parallel simulation;
	// at our scaled-down cache size cold starts weigh proportionally
	// more, so the bound here is looser. Cold-start overcounts misses,
	// so segmented >= exact, and the inflation must stay moderate.
	g := gen.SocialNetwork(12, 12, 5)
	cfg := smallCache()
	exact := SimulateSpMV(g, SimOptions{Cache: cfg, Threads: 4, Interval: 256})
	seg := SimulateSpMVSegmented(g, SimOptions{Cache: cfg, Threads: 4, Interval: 256}, 4)
	if seg.Misses < exact.Cache.Misses {
		t.Errorf("segmented %d below exact %d — cold starts should only add misses",
			seg.Misses, exact.Cache.Misses)
	}
	rel := float64(seg.Misses)/float64(exact.Cache.Misses) - 1
	if rel > 0.35 {
		t.Errorf("segmented absolute error %.1f%% too large", 100*rel)
	}
	if seg.MissRate() <= 0 {
		t.Error("zero miss rate")
	}
}

func TestSegmentedPreservesRelativeOrdering(t *testing.T) {
	// The paper's key validation: the *relative* comparison between two
	// reorderings survives the approximation (1.4% relative error there).
	g := gen.WebGraph(gen.DefaultWebGraph(1<<13, 8, 7))
	ro := g.Relabel(reorder.Perm(reorder.MustNew("ro"), g))
	sb := g.Relabel(reorder.Perm(reorder.MustNew("sb"), g))
	cfg := smallCache()

	exactRO := SimulateSpMV(ro, SimOptions{Cache: cfg, Threads: 4}).Cache.Misses
	exactSB := SimulateSpMV(sb, SimOptions{Cache: cfg, Threads: 4}).Cache.Misses
	segRO := SimulateSpMVSegmented(ro, SimOptions{Cache: cfg, Threads: 4, Interval: 1024}, 8).Misses
	segSB := SimulateSpMVSegmented(sb, SimOptions{Cache: cfg, Threads: 4, Interval: 1024}, 8).Misses

	if (exactRO < exactSB) != (segRO < segSB) {
		t.Fatalf("segmented simulation inverted the RO-vs-SB ordering: exact %d/%d, segmented %d/%d",
			exactRO, exactSB, segRO, segSB)
	}
	// Relative gap should agree within a few percent.
	exactRatio := float64(exactRO) / float64(exactSB)
	segRatio := float64(segRO) / float64(segSB)
	if math.Abs(exactRatio-segRatio) > 0.10 {
		t.Errorf("relative ratio drifted: exact %.3f vs segmented %.3f", exactRatio, segRatio)
	}
}

func TestSegmentedDegenerateArgs(t *testing.T) {
	g := gen.Ring(50)
	res := SimulateSpMVSegmented(g, SimOptions{Cache: smallCache(), Threads: 1}, 0)
	if res.Segments != 1 || res.Accesses != trace.CountAccesses(g) {
		t.Errorf("degenerate result: %+v", res)
	}
	var empty SegmentedResult
	if empty.MissRate() != 0 {
		t.Error("empty MissRate should be 0")
	}
}

// TestSegmentedReportsSimulatedSegments: Segments counts the slices that
// were simulated, not the count requested. The 2-vertex graph with one
// edge 0→1 has 8 accesses; 6 requested segments round to slices of 2, so
// only 4 segments exist.
func TestSegmentedReportsSimulatedSegments(t *testing.T) {
	g := graph.FromEdges(2, []graph.Edge{{Src: 0, Dst: 1}})
	if n := trace.CountAccesses(g); n != 8 {
		t.Fatalf("CountAccesses = %d, want 8", n)
	}
	for _, tc := range []struct{ asked, want int }{{1, 1}, {4, 4}, {6, 4}, {8, 8}, {100, 8}} {
		res := SimulateSpMVSegmented(g, SimOptions{Cache: smallCache()}, tc.asked)
		if res.Segments != tc.want || res.Accesses != 8 {
			t.Errorf("%d segments asked: got %+v, want Segments %d over 8 accesses", tc.asked, res, tc.want)
		}
	}
	if res := SimulateSpMVSegmented(graph.FromEdges(0, nil), SimOptions{Cache: smallCache()}, 3); res.Segments != 0 {
		t.Errorf("empty graph: %d segments simulated, want 0", res.Segments)
	}
}

// TestSegmentedWorkersBound: bounding real concurrency with Workers must
// not change the result (the stream is materialized before replay).
func TestSegmentedWorkersBound(t *testing.T) {
	g := gen.SocialNetwork(10, 11, 6)
	cfg := smallCache()
	unbounded := SimulateSpMVSegmented(g, SimOptions{Cache: cfg, Threads: 4, Interval: 128}, 8)
	bounded := SimulateSpMVSegmented(g, SimOptions{Cache: cfg, Threads: 4, Interval: 128, Workers: 1}, 8)
	if unbounded != bounded {
		t.Fatalf("Workers changed the segmented result: %+v vs %+v", bounded, unbounded)
	}
}
