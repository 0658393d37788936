// Quickstart: generate a synthetic web graph, reorder it with
// Rabbit-Order, and see the locality change in three ways — simulated
// cache misses, N2N AID, and SpMV wall time.
package main

import (
	"fmt"

	"graphlocality/internal/core"
	"graphlocality/internal/gen"
	"graphlocality/internal/reorder"
	"graphlocality/internal/spmv"
)

func main() {
	// 1. A web-like graph: power-law in-degrees, host-local links.
	g := gen.WebGraph(gen.DefaultWebGraph(1<<14, 8, 42))
	fmt.Println("graph:", g)

	// 2. Scramble the IDs to destroy the generator's natural locality,
	// as if the graph had been crawled in an arbitrary order.
	g = g.Relabel(reorder.Perm(reorder.MustNew("random:seed=7"), g))

	// 3. Reorder with Rabbit-Order.
	res := reorder.Run(reorder.MustNew("ro"), g)
	ro := g.Relabel(res.Perm)
	fmt.Printf("Rabbit-Order preprocessing: %.3fs\n", res.Elapsed.Seconds())

	// 4. Compare spatial locality (lower AID = neighbours closer).
	fmt.Printf("mean AID: %.0f (scrambled) -> %.0f (Rabbit-Order)\n",
		core.MeanAID(g), core.MeanAID(ro))

	// 5. Compare simulated cache misses of one pull SpMV.
	before := core.SimulateSpMV(g, core.SimOptions{})
	after := core.SimulateSpMV(ro, core.SimOptions{})
	fmt.Printf("simulated L3 misses: %d -> %d (%.1f%% fewer)\n",
		before.Cache.Misses, after.Cache.Misses,
		100*(1-float64(after.Cache.Misses)/float64(before.Cache.Misses)))

	// 6. And the real traversal time of the parallel engine.
	src := make([]float64, g.NumVertices())
	dst := make([]float64, g.NumVertices())
	for i := range src {
		src[i] = 1
	}
	e1 := spmv.New(g, 4)
	e2 := spmv.New(ro, 4)
	e1.Pull(src, dst) // warmup
	e2.Pull(src, dst)
	t1 := e1.Pull(src, dst)
	t2 := e2.Pull(src, dst)
	fmt.Printf("pull SpMV: %.2fms (scrambled) -> %.2fms (Rabbit-Order)\n",
		float64(t1.Elapsed.Microseconds())/1000, float64(t2.Elapsed.Microseconds())/1000)
}
