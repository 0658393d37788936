// Cachestudy: the paper's simulation toolkit end to end on one dataset —
// the cache miss rate degree distribution (Fig. 1), effective cache size
// (Table V), reuse-distance profile, and the locality-type classification
// of §IV-D — for the initial order and two reorderings.
package main

import (
	"fmt"

	"graphlocality/internal/core"
	"graphlocality/internal/gen"
	"graphlocality/internal/graph"
	"graphlocality/internal/reorder"
	"graphlocality/internal/trace"
)

func main() {
	g := gen.SocialNetwork(14, 16, 7)
	fmt.Println("dataset:", g)

	algs := []reorder.Algorithm{
		reorder.Identity{},
		reorder.MustNew("sb"),
		reorder.MustNew("ro"),
	}

	for _, alg := range algs {
		var h *graph.Graph
		if _, ok := alg.(reorder.Identity); ok {
			h = g
		} else {
			h = g.Relabel(reorder.Perm(alg, g))
		}
		study(alg.Name(), h)
	}
}

func study(name string, g *graph.Graph) {
	fmt.Printf("\n===== %s =====\n", name)

	// Fig. 1: miss rate by out-degree (the reuse count of each vertex's
	// data in a pull traversal), with ECS snapshots enabled (Table V).
	every := int(trace.CountAccesses(g) / 100)
	res := core.SimulateSpMV(g, core.SimOptions{
		PerVertex:     true,
		SnapshotEvery: every,
	})
	fmt.Printf("overall miss rate %5.2f%%  (%d misses)  ECS %.1f%%\n",
		100*res.Cache.MissRate(), res.Cache.Misses, res.ECS)

	dist := core.MissRateByDegree(res, g.OutDegrees())
	fmt.Println("miss rate (%) by out-degree:")
	for _, i := range dist.NonEmpty() {
		fmt.Printf("  %-12s %6.2f\n", dist.Bins.Label(i), dist.Mean(i))
	}

	// Reuse distances of the random accesses.
	p := core.ReuseDistances(g, trace.Pull, 64)
	fmt.Printf("reuse distances: mean %.0f lines, cold %.1f%%\n",
		p.MeanReuseDistance(), 100*float64(p.Cold)/float64(p.Total))

	// Locality types (§IV-D) — serial (I–III) and with the 4-thread
	// interleaving that exposes the cross-thread types IV and V.
	tp := core.ClassifyLocalityTypes(g, 64, 1, 1024)
	fmt.Printf("locality types: I %.1f%%  II %.1f%%  III %.1f%%  (cold %.1f%%)\n",
		pct(tp.TypeI, tp.Total), pct(tp.TypeII, tp.Total),
		pct(tp.TypeIII, tp.Total), pct(tp.Cold, tp.Total))
	pp := core.ClassifyLocalityTypes(g, 64, 4, 1024)
	fmt.Printf("parallel (4T):  I %.1f%%  II %.1f%%  III %.1f%%  IV %.1f%%  V %.1f%%\n",
		pct(pp.TypeI, pp.Total), pct(pp.TypeII, pp.Total),
		pct(pp.TypeIII, pp.Total), pct(pp.TypeIV, pp.Total), pct(pp.TypeV, pp.Total))

	// The LRU miss-ratio curve from the reuse profile: where is the
	// working-set knee for this ordering?
	mrc := p.MRC()
	if knee := mrc.WorkingSetLines(0.25); knee > 0 {
		fmt.Printf("MRC: LRU miss ratio drops below 25%% at %d cache lines (%d KiB)\n",
			knee, knee*64/1024)
	}
}

func pct(x, total uint64) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(x) / float64(total)
}
