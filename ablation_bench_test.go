package graphlocality_test

// Ablation benchmarks for the design choices the paper discusses:
// replacement policy of the simulated L3 (§V-B uses dueling
// BRRIP/SRRIP), GOrder's window size (§VIII-C suggests sizing it by
// cache), the cache-aware RA variants of §VIII-C, and the sensitivity of
// the reordering contrast to the cache-size/data-size ratio (DESIGN.md's
// scaling rule).

import (
	"fmt"
	"testing"

	"graphlocality/internal/analytics"
	"graphlocality/internal/cachesim"
	"graphlocality/internal/core"
	"graphlocality/internal/expt"
	"graphlocality/internal/ihtl"
	"graphlocality/internal/reorder"
	"graphlocality/internal/sfc"
	"graphlocality/internal/trace"
)

// BenchmarkAblationCachePolicy compares LRU, SRRIP, BRRIP and DRRIP on
// the same pull-SpMV trace.
func BenchmarkAblationCachePolicy(b *testing.B) {
	s, ds := session()
	g := s.Graph(ds[0])
	base := s.CacheFor(ds[0])
	for _, p := range []cachesim.Policy{cachesim.LRU, cachesim.SRRIP, cachesim.BRRIP, cachesim.DRRIP} {
		cfg := base
		cfg.Policy = p
		b.Run(p.String(), func(b *testing.B) {
			var miss float64
			for i := 0; i < b.N; i++ {
				res := core.SimulateSpMV(g, core.SimOptions{Cache: cfg, Threads: 4})
				miss = 100 * res.Cache.MissRate()
			}
			b.ReportMetric(miss, "missrate%")
		})
	}
}

// BenchmarkAblationGOrderWindow sweeps GOrder's sliding-window size.
func BenchmarkAblationGOrderWindow(b *testing.B) {
	s, ds := session()
	sub := contrastSubset(ds)
	g := s.Graph(sub[0])
	cache := s.CacheFor(sub[0])
	for _, w := range []int{1, 3, 5, 8, 16} {
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			var miss float64
			for i := 0; i < b.N; i++ {
				perm := reorder.Perm(reorder.MustNew(fmt.Sprintf("go:window=%d", w)), g)
				h := g.Relabel(perm)
				res := core.SimulateSpMV(h, core.SimOptions{Cache: cache, Threads: 4})
				miss = 100 * res.Cache.MissRate()
			}
			b.ReportMetric(miss, "missrate%")
		})
	}
}

// BenchmarkAblationCacheAwareRAs compares the plain RAs against the
// §VIII-C cache-aware variants and the RO+GO hybrid.
func BenchmarkAblationCacheAwareRAs(b *testing.B) {
	s, ds := session()
	sub := contrastSubset(ds)
	for _, d := range sub {
		g := s.Graph(d)
		cache := s.CacheFor(d)
		cacheBytes := uint64(cache.SizeBytes())
		algs := []reorder.Algorithm{
			reorder.MustNew("sb"),
			reorder.MustNew(fmt.Sprintf("sb:cachebytes=%d", cacheBytes)),
			reorder.MustNew("ro"),
			reorder.MustNew(fmt.Sprintf("ro:cachebytes=%d", cacheBytes)),
			reorder.MustNew("hybrid"),
		}
		for _, alg := range algs {
			b.Run(d.Name+"/"+alg.Name(), func(b *testing.B) {
				var miss float64
				for i := 0; i < b.N; i++ {
					h := g.Relabel(reorder.Perm(alg, g))
					res := core.SimulateSpMV(h, core.SimOptions{Cache: cache, Threads: 4})
					miss = 100 * res.Cache.MissRate()
				}
				b.ReportMetric(miss, "missrate%")
			})
		}
	}
}

// BenchmarkIHTL compares iHTL flipped-block traversal misses against the
// plain pull traversal and the best RA (§VIII-A): reorderings cannot fix
// hub locality, flipped blocks can.
func BenchmarkIHTL(b *testing.B) {
	s, ds := session()
	for _, d := range contrastSubset(ds) {
		g := s.Graph(d)
		cfg := s.CacheFor(d)
		blocked := ihtl.Build(g, ihtl.Config{CacheBytes: uint64(cfg.SizeBytes() / 2)})
		count := func(run func(trace.Sink)) uint64 {
			c := cachesim.New(cfg)
			run(func(a trace.Access) { c.Access(a.Addr, a.Write) })
			return c.Stats().Misses
		}
		b.Run(d.Name, func(b *testing.B) {
			var plain, flipped uint64
			for i := 0; i < b.N; i++ {
				plain = count(func(sk trace.Sink) {
					trace.Run(g, trace.NewLayout(g), trace.Whole(g, trace.Pull), func(a trace.Access) bool { sk(a); return true })
				})
				flipped = count(func(sk trace.Sink) { ihtl.Trace(blocked, ihtl.NewLayout(blocked), sk) })
			}
			b.ReportMetric(float64(plain)/1e3, "plainKmiss")
			b.ReportMetric(float64(flipped)/1e3, "ihtlKmiss")
			printOnce("ihtl-"+d.Name, fmt.Sprintf("iHTL (%s): plain pull %d misses, iHTL %d misses (%s)",
				d.Name, plain, flipped, blocked))
		})
	}
}

// BenchmarkAnalytics measures the frontier and iterative analytics of
// §II-B on the first social dataset.
func BenchmarkAnalytics(b *testing.B) {
	s, ds := session()
	g := s.Graph(ds[0])
	b.Run("BFS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			analytics.BFS(g, 0)
		}
	})
	b.Run("ThriftyCC", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			analytics.ThriftyCC(g)
		}
	})
	b.Run("CCLabelProp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			analytics.ConnectedComponentsLP(g)
		}
	})
	b.Run("SSSP", func(b *testing.B) {
		w := analytics.HashWeights(16)
		for i := 0; i < b.N; i++ {
			analytics.SSSP(g, 0, w)
		}
	})
	b.Run("HITS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			analytics.HITS(g, 5)
		}
	})
}

// BenchmarkHilbertCOO compares the space-filling-curve edge ordering of
// §IX-A's related work against row-ordered COO and the CSC pull
// traversal on one social dataset.
func BenchmarkHilbertCOO(b *testing.B) {
	s, ds := session()
	g := s.Graph(ds[0])
	cfg := s.CacheFor(ds[0])
	l := trace.NewLayout(g)
	hilbert := sfc.HilbertOrder(g)
	row := sfc.RowOrder(g)
	count := func(run func(trace.Sink)) uint64 {
		c := cachesim.New(cfg)
		run(func(a trace.Access) { c.Access(a.Addr, a.Write) })
		return c.Stats().Misses
	}
	var hm, rm, pm uint64
	for i := 0; i < b.N; i++ {
		hm = count(func(sk trace.Sink) { sfc.Trace(hilbert, l, sk) })
		rm = count(func(sk trace.Sink) { sfc.Trace(row, l, sk) })
		pm = count(func(sk trace.Sink) {
			trace.Run(g, l, trace.Whole(g, trace.Pull), func(a trace.Access) bool { sk(a); return true })
		})
	}
	b.ReportMetric(float64(hm)/1e3, "hilbertKmiss")
	b.ReportMetric(float64(rm)/1e3, "rowKmiss")
	b.ReportMetric(float64(pm)/1e3, "pullKmiss")
	printOnce("hilbert", fmt.Sprintf(
		"Hilbert COO: %d misses, row COO: %d, CSC pull: %d", hm, rm, pm))
}

// BenchmarkAblationHierarchy probes the paper's L3-only simulation
// choice by measuring how much of SpMV's random traffic the private
// levels absorb, with L1:L2:L3 capacity ratios matching the paper's
// machine (32 KiB : 1 MiB : 22 MiB ≈ 1 : 32 : 704), all scaled to the
// dataset.
func BenchmarkAblationHierarchy(b *testing.B) {
	s, ds := session()
	g := s.Graph(ds[0])
	l3 := s.CacheFor(ds[0])
	// L2 = L3/22, L1 = L3/704 (at least one set each).
	mk := func(name string, div int) cachesim.Config {
		sets := l3.Sets * l3.Ways / (8 * div)
		if sets < 1 {
			sets = 1
		}
		return cachesim.Config{Name: name, LineSize: 64, Sets: sets, Ways: 8, Policy: cachesim.LRU}
	}
	l := trace.NewLayout(g)
	var filter float64
	for i := 0; i < b.N; i++ {
		h := cachesim.NewHierarchy(mk("L1", 704), mk("L2", 22), l3)
		trace.Run(g, l, trace.Whole(g, trace.Pull), func(a trace.Access) bool {
			if a.Kind == trace.KindVertexRead {
				h.Access(a.Addr, a.Write)
			}
			return true
		})
		l1 := h.LevelStats(0)
		l2 := h.LevelStats(1)
		filter = 100 * (1 - float64(l2.Misses)/float64(l1.Misses))
	}
	b.ReportMetric(filter, "pvtfilter%")
	printOnce("hier", fmt.Sprintf(
		"private L1+L2 absorb %.1f%% of L1-missing random vertex reads at paper-ratio capacities", filter))
}

// BenchmarkAblationPrefetch measures the next-line prefetcher's effect on
// the SpMV trace: it should absorb much of the sequential topology
// stream's misses (§II-D) while leaving the random vertex accesses alone.
func BenchmarkAblationPrefetch(b *testing.B) {
	s, ds := session()
	g := s.Graph(ds[0])
	base := s.CacheFor(ds[0])
	run := func(prefetch bool) float64 {
		cfg := base
		cfg.NextLinePrefetch = prefetch
		res := core.SimulateSpMV(g, core.SimOptions{Cache: cfg, Threads: 4})
		return 100 * res.Cache.MissRate()
	}
	var off, on float64
	for i := 0; i < b.N; i++ {
		off = run(false)
		on = run(true)
	}
	b.ReportMetric(off, "noPf%")
	b.ReportMetric(on, "pf%")
	printOnce("pf", fmt.Sprintf(
		"next-line prefetcher: miss rate %.2f%% -> %.2f%%", off, on))
}

// BenchmarkNUMA compares one shared L3 against the paper machine's
// 2-socket split (two half-size L3s, threads divided between them).
func BenchmarkNUMA(b *testing.B) {
	s, ds := session()
	g := s.Graph(ds[0])
	full := s.CacheFor(ds[0])
	half := full
	if half.Sets > 1 {
		half.Sets = full.Sets / 2
	}
	var single, dual uint64
	for i := 0; i < b.N; i++ {
		single = core.SimulateSpMV(g, core.SimOptions{Cache: full, Threads: 4, Interval: 1024}).Cache.Misses
		dual = core.SimulateSpMVNUMA(g, core.SimOptions{Cache: half, Threads: 4, Interval: 1024}, 2).TotalMisses
	}
	b.ReportMetric(float64(single)/1e3, "1sockKmiss")
	b.ReportMetric(float64(dual)/1e3, "2sockKmiss")
	printOnce("numa", fmt.Sprintf(
		"NUMA: one shared L3 %d misses vs 2x half-size sockets %d (hot-data duplication)",
		single, dual))
}

// BenchmarkAblationCacheFraction sweeps the simulated-cache size relative
// to the vertex data, showing where reordering stops mattering (once the
// data fits, every ordering hits).
func BenchmarkAblationCacheFraction(b *testing.B) {
	s, ds := session()
	sub := contrastSubset(ds)
	var web expt.Dataset
	for _, d := range sub {
		if d.Kind == expt.WebGraph {
			web = d
		}
	}
	g := s.Graph(web)
	ro := s.Relabeled(web, reorder.MustNew("ro"))
	for _, frac := range []float64{0.01, 0.02, 0.04, 0.08, 0.16} {
		cfg := cachesim.ScaledL3(g.NumVertices(), frac)
		b.Run(fmt.Sprintf("frac%.2f", frac), func(b *testing.B) {
			var initMiss, roMiss float64
			for i := 0; i < b.N; i++ {
				a := core.SimulateSpMV(g, core.SimOptions{Cache: cfg, Threads: 4})
				c := core.SimulateSpMV(ro, core.SimOptions{Cache: cfg, Threads: 4})
				initMiss = 100 * a.Cache.MissRate()
				roMiss = 100 * c.Cache.MissRate()
			}
			b.ReportMetric(initMiss, "initial%")
			b.ReportMetric(roMiss, "ro%")
		})
	}
}
