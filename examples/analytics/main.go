// Analytics: run the frontier-based and iterative analytics of §II-B —
// BFS, connected components, SSSP, HITS, label propagation, PageRank —
// on a social network, then show the §VIII-A punchline: reordering cannot
// fix hub locality, but iHTL's flipped blocks can.
package main

import (
	"fmt"

	"graphlocality/internal/analytics"
	"graphlocality/internal/cachesim"
	"graphlocality/internal/core"
	"graphlocality/internal/gen"
	"graphlocality/internal/ihtl"
	"graphlocality/internal/reorder"
	"graphlocality/internal/spmv"
	"graphlocality/internal/trace"
)

func main() {
	g := gen.SocialNetwork(14, 16, 11)
	fmt.Println("dataset:", g)

	// --- frontier analytics -------------------------------------------
	bfs := analytics.BFS(g, 0)
	fmt.Printf("BFS: reached %d of %d in %d iterations (%d push, %d pull)\n",
		bfs.Reached(), g.NumVertices(), bfs.Iterations, bfs.PushSteps, bfs.PullSteps)

	cc := analytics.ThriftyCC(g)
	fmt.Printf("ThriftyCC: %d components in %d passes\n", cc.Components, cc.Iterations)

	sssp := analytics.SSSP(g, 0, analytics.HashWeights(16))
	reached := 0
	for _, d := range sssp.Dist {
		if d != analytics.Unreachable {
			reached++
		}
	}
	fmt.Printf("SSSP: %d reachable, %d relaxations in %d rounds\n",
		reached, sssp.Relaxations, sssp.Iterations)

	// --- iterative analytics ------------------------------------------
	hits := analytics.HITS(g, 10)
	fmt.Printf("HITS: %d iterations (authority/hub scores L2-normalized)\n", hits.Iterations)

	lp := analytics.LabelPropagation(g, 20)
	fmt.Printf("LabelPropagation: %d communities after %d iterations\n",
		lp.Communities, lp.Iterations)

	e := spmv.New(g, 4)
	pr := spmv.PageRank(g, func(src, dst []float64) { e.Pull(src, dst) }, 10, 0.85)
	best, bestRank := 0, 0.0
	for v, r := range pr {
		if r > bestRank {
			best, bestRank = v, r
		}
	}
	fmt.Printf("PageRank: top vertex %d (rank %.2e), its in-degree %d (max %d)\n",
		best, bestRank, g.InDegree(uint32(best)), g.MaxInDegree())

	// --- §VIII-A: iHTL vs reordering on hub locality ------------------
	fmt.Println("\nhub locality, simulated L3 misses of one SpMV:")
	cfg := cachesim.ScaledL3(g.NumVertices(), 0.04)
	plain := core.SimulateSpMV(g, core.SimOptions{Cache: cfg}).Cache.Misses
	ro := g.Relabel(reorder.Perm(reorder.MustNew("ro"), g))
	roMiss := core.SimulateSpMV(ro, core.SimOptions{Cache: cfg}).Cache.Misses
	blocked := ihtl.Build(g, ihtl.Config{CacheBytes: uint64(cfg.SizeBytes() / 2)})
	c := cachesim.New(cfg)
	ihtl.Trace(blocked, ihtl.NewLayout(blocked), func(a trace.Access) { c.Access(a.Addr, a.Write) })
	ihtlMiss := c.Stats().Misses
	fmt.Printf("  plain pull:    %8d\n", plain)
	fmt.Printf("  Rabbit-Order:  %8d\n", roMiss)
	fmt.Printf("  iHTL (%s): %8d\n", blocked, ihtlMiss)

	// And correctness: iHTL computes the same SpMV.
	src := make([]float64, g.NumVertices())
	a := make([]float64, g.NumVertices())
	b := make([]float64, g.NumVertices())
	for i := range src {
		src[i] = 1
	}
	spmv.SequentialPull(g, src, a)
	blocked.SpMV(src, b)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
	}
	fmt.Println("iHTL result matches pull SpMV:", same)
}
