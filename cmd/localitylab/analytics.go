package main

import (
	"flag"
	"fmt"

	"graphlocality/internal/analytics"
	"graphlocality/internal/cachesim"
	"graphlocality/internal/core"
	"graphlocality/internal/ihtl"
	"graphlocality/internal/spmv"
	"graphlocality/internal/trace"
)

func cmdAnalytics(args []string) error {
	fs := flag.NewFlagSet("analytics", flag.ExitOnError)
	in := fs.String("graph", "", "input graph (segmented)")
	algo := fs.String("alg", "bfs", "analytic: bfs, cc, thrifty, sssp, hits, lp, pagerank")
	src := fs.Uint("src", 0, "source vertex for bfs/sssp")
	iters := fs.Int("iters", 10, "iterations for hits/lp/pagerank")
	fs.Parse(args)
	if *in == "" {
		return usagef("-graph is required")
	}
	g, err := loadGraph(*in)
	if err != nil {
		return err
	}
	if uint32(*src) >= g.NumVertices() && g.NumVertices() > 0 {
		return fmt.Errorf("source %d out of range", *src)
	}
	switch *algo {
	case "bfs":
		r := analytics.BFS(g, uint32(*src))
		fmt.Printf("BFS from %d: reached %d/%d, %d iterations (%d push, %d pull)\n",
			*src, r.Reached(), g.NumVertices(), r.Iterations, r.PushSteps, r.PullSteps)
	case "cc":
		r := analytics.ConnectedComponentsLP(g)
		fmt.Printf("label-propagation CC: %d components in %d iterations\n",
			r.Components, r.Iterations)
	case "thrifty":
		r := analytics.ThriftyCC(g)
		fmt.Printf("Thrifty CC: %d components in %d passes\n", r.Components, r.Iterations)
	case "sssp":
		r := analytics.SSSP(g, uint32(*src), analytics.HashWeights(16))
		reached := 0
		for _, d := range r.Dist {
			if d != analytics.Unreachable {
				reached++
			}
		}
		fmt.Printf("SSSP from %d: %d reachable, %d relaxations, %d rounds\n",
			*src, reached, r.Relaxations, r.Iterations)
	case "hits":
		r := analytics.HITS(g, *iters)
		top, best := 0, 0.0
		for v, a := range r.Authority {
			if a > best {
				top, best = v, a
			}
		}
		fmt.Printf("HITS: top authority vertex %d (score %.3f, in-degree %d)\n",
			top, best, g.InDegree(uint32(top)))
	case "lp":
		r := analytics.LabelPropagation(g, *iters)
		fmt.Printf("label propagation: %d communities after %d iterations\n",
			r.Communities, r.Iterations)
	case "pagerank":
		e := spmv.New(g, 0)
		pr := spmv.PageRank(g, func(src, dst []float64) { e.Pull(src, dst) }, *iters, 0.85)
		top, best := 0, 0.0
		for v, x := range pr {
			if x > best {
				top, best = v, x
			}
		}
		fmt.Printf("PageRank: top vertex %d (rank %.3e, in-degree %d)\n",
			top, best, g.InDegree(uint32(top)))
	default:
		return usagef("unknown analytic %q", *algo)
	}
	return nil
}

func cmdIHTL(args []string) error {
	fs := flag.NewFlagSet("ihtl", flag.ExitOnError)
	in := fs.String("graph", "", "input graph (segmented)")
	cacheBytes := fs.Uint64("cachebytes", 0, "flipped-block accumulator budget (0 = half the scaled L3)")
	fs.Parse(args)
	if *in == "" {
		return usagef("-graph is required")
	}
	g, err := loadGraph(*in)
	if err != nil {
		return err
	}
	cfg := cachesim.ScaledL3(g.NumVertices(), cachesim.DefaultVertexCacheFraction)
	budget := *cacheBytes
	if budget == 0 {
		budget = uint64(cfg.SizeBytes() / 2)
	}
	b := ihtl.Build(g, ihtl.Config{CacheBytes: budget})
	fmt.Println(b)

	plain := core.SimulateSpMV(g, core.SimOptions{Cache: cfg}).Cache.Misses
	c := cachesim.New(cfg)
	ihtl.Trace(b, ihtl.NewLayout(b), func(a trace.Access) { c.Access(a.Addr, a.Write) })
	blocked := c.Stats().Misses
	fmt.Printf("simulated L3 misses: plain pull %d, iHTL %d (%.1f%% fewer)\n",
		plain, blocked, 100*(1-float64(blocked)/float64(plain)))
	return nil
}
