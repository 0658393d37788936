// Reordercompare: run the full reordering line-up (three paper RAs, the
// paper's two proposed improvements, and the lightweight baselines) on one
// graph and compare preprocessing cost against the locality they deliver —
// a compact version of the paper's Tables II and IV.
package main

import (
	"fmt"
	"os"
	"text/tabwriter"

	"graphlocality/internal/core"
	"graphlocality/internal/gen"
	"graphlocality/internal/reorder"
	"graphlocality/internal/spmv"
)

func main() {
	g := gen.WebGraph(gen.DefaultWebGraph(1<<15, 10, 21))
	// Scramble first so every algorithm starts from a locality-free order.
	g = g.Relabel(reorder.Perm(reorder.MustNew("random:seed=99"), g))
	fmt.Println("dataset (scrambled web graph):", g)

	algs := []reorder.Algorithm{
		reorder.Identity{},
		reorder.MustNew("degsort"),
		reorder.MustNew("hubsort"),
		reorder.MustNew("hubcluster"),
		reorder.MustNew("dbg"),
		reorder.MustNew("rcm"),
		reorder.MustNew("sb"),
		reorder.MustNew("sb++"),
		reorder.MustNew("go"),
		reorder.MustNew("ro"),
		reorder.MustNew(fmt.Sprintf("ro:edr=1-%d", uint32(g.HubThreshold()))),
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "RA\tPreproc (ms)\tTraversal (ms)\tL3 misses (K)\tMiss rate (%)\tMean AID")
	src := make([]float64, g.NumVertices())
	dst := make([]float64, g.NumVertices())
	for i := range src {
		src[i] = 1
	}
	for _, alg := range algs {
		res := reorder.Run(alg, g)
		h := g.Relabel(res.Perm)
		sim := core.SimulateSpMV(h, core.SimOptions{})
		e := spmv.New(h, 4)
		e.Pull(src, dst) // warmup
		st := e.Pull(src, dst)
		fmt.Fprintf(w, "%s\t%.1f\t%.2f\t%.1f\t%.2f\t%.0f\n",
			res.Algorithm,
			float64(res.Elapsed.Microseconds())/1000,
			float64(st.Elapsed.Microseconds())/1000,
			float64(sim.Cache.Misses)/1e3,
			100*sim.Cache.MissRate(),
			core.MeanAID(h))
	}
	w.Flush()
	fmt.Println("\nlower AID = neighbours' IDs closer together (better spatial locality);")
	fmt.Println("the paper's headline: community RAs (RO) win on web graphs, and")
	fmt.Println("degree-ordering RAs (SB) can destroy locality while looking busy.")
}
