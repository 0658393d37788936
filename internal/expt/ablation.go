package expt

import (
	"fmt"
	"math/bits"
	"strings"

	"graphlocality/internal/cachesim"
	"graphlocality/internal/core"
	"graphlocality/internal/graph"
	"graphlocality/internal/reorder"
	"graphlocality/internal/trace"
)

// ablation renders three probes of the paper's simulation method: the L3
// replacement policy (the paper's is DRRIP, §V-B) and the private levels
// the paper leaves out, both on the first dataset of ds, and the cache
// fraction (DESIGN.md's scaling rule) on the last, the web graph of a
// Contrast selection. Every simulation is one scheduler cell.
func ablation(s *Session, ds []Dataset) string {
	first, web := ds[0], ds[len(ds)-1]
	var b strings.Builder

	g := s.Graph(first)
	policies := []cachesim.Policy{cachesim.LRU, cachesim.SRRIP, cachesim.BRRIP, cachesim.DRRIP}
	policyMiss := mapCells(s, len(policies), func(i int) float64 {
		opts := core.PaperOptions(g, trace.Pull)
		opts.Cache.Policy = policies[i]
		return 100 * core.SimulateSpMV(g, opts).Cache.MissRate()
	})
	fmt.Fprintf(&b, "-- replacement policy (%s, pull, 4 threads) --\n", first.Name)
	w := newTab(&b)
	fmt.Fprintln(w, "Policy\tMiss rate (%)")
	for i, p := range policies {
		fmt.Fprintf(w, "%s\t%.2f\n", p, policyMiss[i])
	}
	w.Flush()

	// Initial and RO at each fraction, interleaved.
	fractions := []float64{0.01, 0.02, 0.04, 0.08, 0.16}
	graphs := []*graph.Graph{s.Graph(web), s.Relabeled(web, reorder.MustNew("ro"))}
	caches := make([]cachesim.Config, len(fractions))
	for i, f := range fractions {
		caches[i] = cachesim.ScaledL3(graphs[0].NumVertices(), f)
	}
	miss := mapCells(s, 2*len(fractions), func(i int) float64 {
		h := graphs[i%2]
		opts := core.PaperOptions(h, trace.Pull)
		opts.Cache = caches[i/2]
		return 100 * core.SimulateSpMV(h, opts).Cache.MissRate()
	})
	fmt.Fprintf(&b, "-- cache fraction (%s, pull, 4 threads) --\n", web.Name)
	w = newTab(&b)
	fmt.Fprintln(w, "Fraction\tL3 (KiB)\tInitial miss (%)\tRO miss (%)")
	for i, f := range fractions {
		fmt.Fprintf(w, "%.2f\t%d\t%.2f\t%.2f\n", f, caches[i].SizeBytes()/1024, miss[2*i], miss[2*i+1])
	}
	w.Flush()

	// The paper machine's private levels against its L3: a 32 KiB L1D
	// and a 1 MiB L2 beside the 22 MiB L3, so 1/704 and 1/22 of it.
	l3, paperL3 := s.CacheFor(first), cachesim.SkylakeL3().SizeBytes()
	levels := []cachesim.Config{privateLevel("L1", l3, paperL3/(32<<10)), privateLevel("L2", l3, paperL3/(1<<20)), l3}
	h := cachesim.NewHierarchy(levels...)
	trace.Generate(g, trace.NewLayout(g), trace.Whole(g, trace.Pull), 0, true, func(blk *trace.Block) bool {
		for i, k := range blk.Kinds {
			if k == trace.KindVertexRead {
				h.Access(blk.Addrs[i], blk.Writes[i])
			}
		}
		return true
	})
	fmt.Fprintf(&b, "-- private levels (%s, random vertex reads, paper-ratio L1:L2:L3) --\n", first.Name)
	w = newTab(&b)
	fmt.Fprintln(w, "Level\tSize (B)\tAccesses\tMisses\tMiss rate (%)")
	for i, c := range levels {
		st := h.LevelStats(i)
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%.2f\n", c.Name, c.SizeBytes(), st.Accesses, st.Misses, 100*st.MissRate())
	}
	w.Flush()
	var filter float64
	if l1 := h.LevelStats(0).Misses; l1 > 0 {
		filter = 1 - float64(h.LevelStats(1).Misses)/float64(l1)
	}
	fmt.Fprintf(&b, "L2 absorbs %.2f%% of the L1 misses\n", 100*filter)
	return b.String()
}

// privateLevel returns an 8-way LRU level holding 1/div of l3's lines,
// with at least one set and the set count rounded down to a power of two.
func privateLevel(name string, l3 cachesim.Config, div int) cachesim.Config {
	sets := max(l3.Sets*l3.Ways/(8*div), 1)
	return cachesim.Config{Name: name, LineSize: l3.LineSize, Sets: 1 << (bits.Len(uint(sets)) - 1), Ways: 8, Policy: cachesim.LRU}
}
