package graphlocality_test

// Ablation benchmarks for the design choices the paper discusses:
// GOrder's window size (§VIII-C suggests sizing it by cache), the
// cache-aware RA variants of §VIII-C and the next-line prefetcher. The
// probes of the simulation method itself (replacement policy, cache
// fraction, private levels) are the `ablation` experiment.

import (
	"fmt"
	"testing"

	"graphlocality/internal/analytics"
	"graphlocality/internal/core"
	"graphlocality/internal/expt"
	"graphlocality/internal/reorder"
)

// BenchmarkAblationGOrderWindow sweeps GOrder's sliding-window size.
func BenchmarkAblationGOrderWindow(b *testing.B) {
	s, ds := session()
	sub, _ := expt.Contrast.Pick(ds) // Contrast never fails
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
	sub, _ := expt.Contrast.Pick(ds) // Contrast never fails
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

// BenchmarkReorderAlgorithms measures raw preprocessing throughput of each
// RA on the first social dataset (an ablation supplement to Table II).
func BenchmarkReorderAlgorithms(b *testing.B) {
	s, ds := session()
	g := s.Graph(ds[0])
	for _, alg := range []reorder.Algorithm{
		reorder.DegreeSort{}, reorder.HubSort{},
		reorder.DBG{},
		reorder.MustNew("sb++"), reorder.MustNew("ro"),
	} {
		b.Run(alg.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				reorder.Perm(alg, g)
			}
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
