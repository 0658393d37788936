package core

import (
	"sync"

	"graphlocality/internal/cachesim"
	"graphlocality/internal/graph"
)

// Sharded variants of the heavy per-graph analytics. Each splits the vertex
// set into contiguous ranges, runs the serial computation per range in its
// own goroutine, and merges the per-shard aggregates in shard order — so
// the result is deterministic for a fixed shard count, and a shard count of
// one delegates to the exact serial implementation.

// ShardRanges splits [0, n) into at most `shards` near-equal contiguous
// vertex ranges (fewer when n is small). It always returns at least one
// range so callers can iterate unconditionally.
func ShardRanges(n uint32, shards int) []graph.Range {
	if shards < 1 {
		shards = 1
	}
	if uint32(shards) > n && n > 0 {
		shards = int(n)
	}
	ranges := make([]graph.Range, 0, shards)
	per := n / uint32(shards)
	rem := n % uint32(shards)
	lo := uint32(0)
	for i := 0; i < shards; i++ {
		hi := lo + per
		if uint32(i) < rem {
			hi++
		}
		ranges = append(ranges, graph.Range{Lo: lo, Hi: hi})
		lo = hi
	}
	return ranges
}

// AIDByDegreeParallel is AIDByDegree sharded over vertex ranges. AID(v)
// depends only on v's own in-neighbour list, so shards are independent; the
// per-shard series share the bin layout (bins depend only on the global max
// in-degree) and merge in shard order. Per-bin sums are float64, so the
// summation order — and hence the last ulp — can differ from the serial
// scan; shards <= 1 runs the serial implementation exactly.
func AIDByDegreeParallel(g *graph.Graph, shards int) *DegreeSeries {
	if shards <= 1 {
		return AIDByDegree(g)
	}
	bins := LogBins(maxU32(g.MaxInDegree(), 1))
	ranges := ShardRanges(g.NumVertices(), shards)
	parts := make([]*DegreeSeries, len(ranges))
	var wg sync.WaitGroup
	for i, r := range ranges {
		wg.Add(1)
		go func(i int, r graph.Range) {
			defer wg.Done()
			s := NewDegreeSeries(bins)
			for v := r.Lo; v < r.Hi; v++ {
				d := g.InDegree(v)
				if d == 0 {
					continue
				}
				s.Add(d, AID(g, v))
			}
			parts[i] = s
		}(i, r)
	}
	wg.Wait()
	out := NewDegreeSeries(bins)
	for _, p := range parts {
		out.Merge(p)
	}
	return out
}

// MissRateByDegreeParallel is MissRateByDegree sharded over vertex ranges.
// The per-bin sums are integer miss counts scaled to percent, so the merge
// reproduces the serial result bit-for-bit at any shard count.
func MissRateByDegreeParallel(res SimResult, degrees []uint32, shards int) *DegreeSeries {
	return missRateSeriesParallel(res.VertexAccesses, res.VertexMisses, degrees, shards)
}

// ProcessingMissRateByDegreeParallel is ProcessingMissRateByDegree sharded
// over vertex ranges; bit-for-bit identical to the serial result at any
// shard count (integer-valued bin sums).
func ProcessingMissRateByDegreeParallel(res SimResult, degrees []uint32, shards int) *DegreeSeries {
	return missRateSeriesParallel(res.DestAccesses, res.DestMisses, degrees, shards)
}

func missRateSeriesParallel(accesses, misses, degrees []uint32, shards int) *DegreeSeries {
	if shards <= 1 {
		return missRateSeries(accesses, misses, degrees)
	}
	var maxDeg uint32 = 1
	for _, d := range degrees {
		if d > maxDeg {
			maxDeg = d
		}
	}
	bins := LogBins(maxDeg)
	ranges := ShardRanges(uint32(len(accesses)), shards)
	parts := make([]*DegreeSeries, len(ranges))
	var wg sync.WaitGroup
	for i, r := range ranges {
		wg.Add(1)
		go func(i int, r graph.Range) {
			defer wg.Done()
			s := NewDegreeSeries(bins)
			for v := r.Lo; v < r.Hi; v++ {
				acc := accesses[v]
				if acc == 0 {
					continue
				}
				j := bins.Index(degrees[v])
				s.Sum[j] += 100 * float64(misses[v])
				s.Count[j] += uint64(acc)
			}
			parts[i] = s
		}(i, r)
	}
	wg.Wait()
	out := NewDegreeSeries(bins)
	for _, p := range parts {
		out.Merge(p)
	}
	return out
}

// LineUtilizationParallel shards LineUtilization's shadow-cache scan by
// destination-vertex range: each shard replays, against a private shadow
// cache, the sub-stream of random reads issued while processing its vertex
// range, and the per-shard histograms merge in shard order. The global
// cache (and its DRRIP set-dueling state) cannot be split by cache set, so
// sharding by trace range is the only decomposition that keeps each shard a
// faithful cache simulation. Each shard's cache starts cold at its range
// boundary, so the histogram differs slightly from the serial scan —
// boundary refills are a vanishing fraction of evictions on real graphs —
// but is deterministic for a fixed shard count. shards <= 1 runs the exact
// serial scan.
func LineUtilizationParallel(g *graph.Graph, cfg cachesim.Config, shards int) cachesim.UtilizationStats {
	if shards <= 1 {
		return LineUtilization(g, cfg)
	}
	if cfg == (cachesim.Config{}) {
		cfg = cachesim.ScaledL3(g.NumVertices(), cachesim.DefaultVertexCacheFraction)
	}
	ranges := ShardRanges(g.NumVertices(), shards)
	parts := make([]cachesim.UtilizationStats, len(ranges))
	var wg sync.WaitGroup
	for i, r := range ranges {
		wg.Add(1)
		go func(i int, r graph.Range) {
			defer wg.Done()
			parts[i] = lineUtilization(g, cfg, r)
		}(i, r)
	}
	wg.Wait()
	var out cachesim.UtilizationStats
	for _, p := range parts {
		out.Merge(p)
	}
	return out
}
