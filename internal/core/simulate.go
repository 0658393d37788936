package core

import (
	"context"

	"graphlocality/internal/cachesim"
	"graphlocality/internal/graph"
	"graphlocality/internal/runctl"
	"graphlocality/internal/trace"
)

// SimOptions configures an SpMV cache simulation.
type SimOptions struct {
	// Ctx, when non-nil, is polled as the simulation runs (once per block
	// on the fast path); when it dies the simulation stops early and the
	// result carries the counters accumulated so far with Canceled set.
	Ctx context.Context
	// Direction of the traversal (default Pull).
	Direction trace.Direction
	// Threads emulated by the paper's two-phase parallel simulation; 1
	// runs a sequential trace.
	Threads int
	// Workers bounds the number of segment replays SimulateSpMVSegmented
	// runs concurrently (0 = one goroutine per segment). It never changes
	// the simulated access stream, and SimulateSpMV ignores it: the cache
	// model is serial by nature (DRRIP's PSEL and BRRIP's bimodal counter
	// are global and order-dependent).
	Workers int
	// Interval is the per-thread access-interleaving interval (default
	// 1024 accesses).
	Interval int
	// Cache geometry; zero value uses cachesim.ScaledL3 with the default
	// vertex-cache fraction.
	Cache cachesim.Config
	// TLB, when non-nil, is also driven with every access.
	TLB *cachesim.TLBConfig
	// SnapshotEvery enables ECS measurement: the cache content is scanned
	// every SnapshotEvery accesses (0 disables).
	SnapshotEvery int
	// PerVertex enables per-vertex hit/miss attribution for random
	// vertex-data accesses (needed for Fig. 1 and Table III).
	PerVertex bool
}

// SimResult carries the counters of one simulated SpMV iteration.
type SimResult struct {
	Cache cachesim.Stats
	TLB   cachesim.Stats

	// VertexMisses counts the misses of the random vertex-data accesses,
	// attributed to the vertex whose *data* was touched (only when
	// SimOptions.PerVertex). This is the Table III view: reloads of hub
	// data. The access counts are degrees (see MissRateByDegree).
	VertexMisses []uint32

	// DestMisses attributes the same misses to the vertex being
	// *processed* when the access was issued (only when PerVertex). This
	// is the Fig. 1 view: the cost of processing each degree class —
	// in-hubs read many neighbours and miss often (§VI-D).
	DestMisses []uint32

	// BytesTouched sums the element sizes of every simulated access — the
	// deterministic bytes-processed figure the observability manifests
	// report per simulate stage (partial on cancellation, like the
	// counters).
	BytesTouched uint64

	// ECS is the average percentage of cache capacity holding old
	// vertex-data lines over all snapshots (only when SnapshotEvery > 0).
	ECS float64
	// Snapshots is the number of content scans taken.
	Snapshots int
	// Canceled reports that SimOptions.Ctx died mid-traversal and the
	// counters cover only the prefix of the access stream.
	Canceled bool
}

// SimulateSpMV drives one SpMV traversal of g through the cache simulator
// per opts and returns the counters. This is the engine behind Fig. 1,
// Tables III, IV (simulated columns), V and VI.
//
// g is any Topology: the in-RAM *graph.Graph or an out-of-core
// *graph.SegGraph, whose segments stream through the same batched path
// without materializing the full CSR. The SimResult is bit-identical
// across representations (addresses are functions of absolute indices
// only; the differential wall in segdiff_test.go enforces it).
//
// It runs on the batched fast path (see simulateBatched), which is
// bit-identical to — and several times faster than — the scalar reference
// implementation SimulateSpMVReference.
func SimulateSpMV(g graph.Topology, opts SimOptions) SimResult {
	return simulateBatched(g, opts)
}

// normalize returns opts with every default applied for graph g: one
// emulated thread, a 1024-access interleave interval and the scaled L3.
// It is the only place SimOptions defaults live.
func (opts SimOptions) normalize(g graph.Dims) SimOptions {
	if opts.Threads < 1 {
		opts.Threads = 1
	}
	if opts.Interval < 1 {
		opts.Interval = 1024
	}
	if opts.Cache == (cachesim.Config{}) {
		opts.Cache = cachesim.ScaledL3(g.NumVertices(), cachesim.DefaultVertexCacheFraction)
	}
	return opts
}

// stream returns the access stream the (normalized) options simulate.
func (opts SimOptions) stream(g graph.Dims) trace.Stream {
	s := trace.Whole(g, opts.Direction)
	s.Threads, s.Interval = opts.Threads, opts.Interval
	return s
}

// SimulateSpMVReference is the scalar reference implementation of
// SimulateSpMV: every access flows through a per-access sink into
// cachesim.Cache.Access. It is the semantic source of truth the batched
// path is differential-tested against (bit-identical SimResult for every
// policy, direction and prefetch setting); keep it boring and obviously
// correct, and optimize simulateBatched instead. It polls opts.Ctx every
// runctl.DefaultPollInterval accesses.
func SimulateSpMVReference(g *graph.Graph, opts SimOptions) SimResult {
	opts = opts.normalize(g)
	cache := cachesim.New(opts.Cache)
	var tlb *cachesim.TLB
	if opts.TLB != nil {
		tlb = cachesim.NewTLB(*opts.TLB)
	}
	layout := trace.NewLayout(g)

	res := SimResult{}
	if opts.PerVertex {
		res.VertexMisses = make([]uint32, g.NumVertices())
		res.DestMisses = make([]uint32, g.NumVertices())
	}

	totalLines := float64(opts.Cache.Sets * opts.Cache.Ways)
	var ecsSum float64
	var accesses, bytesTouched uint64
	poll := runctl.NewPoller(opts.Ctx, runctl.DefaultPollInterval)

	sink := func(a trace.Access) bool {
		hit := cache.Access(a.Addr, a.Write)
		if tlb != nil {
			tlb.Access(a.Addr)
		}
		// Attribute only the *random* vertex-data accesses: reads of
		// neighbours' data in pull/push-read, writes of neighbours' data
		// in push. The sequential own-data access is not attributed.
		random := (opts.Direction == trace.Push && a.Kind == trace.KindVertexWrite) ||
			(opts.Direction != trace.Push && a.Kind == trace.KindVertexRead)
		if opts.PerVertex && random && !hit {
			res.VertexMisses[a.Vertex]++
			res.DestMisses[a.Dest]++
		}
		accesses++
		bytesTouched += a.Bytes()
		if opts.SnapshotEvery > 0 && accesses%uint64(opts.SnapshotEvery) == 0 {
			var dataLines int
			cache.Snapshot(func(line uint64) {
				if layout.InOldData(line) {
					dataLines++
				}
			})
			ecsSum += 100 * float64(dataLines) / totalLines
			res.Snapshots++
		}
		return poll.Check() == nil
	}
	res.Canceled = !trace.Run(g, layout, opts.stream(g), sink)

	res.Cache = cache.Stats()
	res.BytesTouched = bytesTouched
	if tlb != nil {
		res.TLB = tlb.Stats()
	}
	if res.Snapshots > 0 {
		res.ECS = ecsSum / float64(res.Snapshots)
	}
	return res
}

// LineUtilization measures how many 8-byte words of each fetched cache
// line the random vertex-data accesses of a pull SpMV actually touch,
// under the given cache geometry — a direct spatial-locality metric:
// orderings with strong type-I/III locality use most of every line. The
// reads feed a cold shadow cache in trace order. A geometry the tracker
// cannot account (see cachesim.NewUtilizationTracker) is returned as its
// *cachesim.UtilizationConfigError.
func LineUtilization(g graph.Topology, cfg cachesim.Config) (cachesim.UtilizationStats, error) {
	if cfg == (cachesim.Config{}) {
		cfg = cachesim.ScaledL3(g.NumVertices(), cachesim.DefaultVertexCacheFraction)
	}
	tr, err := cachesim.NewUtilizationTracker(cfg)
	if err != nil {
		return cachesim.UtilizationStats{}, err
	}
	trace.Generate(g, trace.NewLayout(g), trace.Whole(g, trace.Pull), 0, true, func(b *trace.Block) bool {
		for i, k := range b.Kinds {
			if k == trace.KindVertexRead {
				tr.Access(b.Addrs[i], b.Writes[i])
			}
		}
		return true
	})
	return tr.Stats(), nil
}

// MissRateByDegree folds the data-owner attribution into a miss-rate
// degree distribution: vertices binned by the supplied degree, which is
// also the number of times the vertex's data is touched (out-degree for
// pull, in-degree for push and push-read), per-bin miss rate in percent
// over all accesses in the bin. A canceled or unattributed result gives
// an empty series: its misses cover only a prefix of the accesses.
func MissRateByDegree(res SimResult, degrees []uint32) *DegreeSeries {
	return missRateSeries(res, res.VertexMisses, degrees)
}

// ProcessingMissRateByDegree folds the processing-vertex attribution into
// the cache miss rate degree distribution of Fig. 1: vertices binned by
// the supplied degree, which is also the number of random accesses made
// while processing them (in-degree for pull, out-degree for push and
// push-read), per-bin miss rate in percent. The paper's §VI-D observation
// lives here: every RA shows elevated miss rates for hub vertices, whose
// many neighbours cannot all be cached. Like MissRateByDegree, it gives
// an empty series for a canceled or unattributed result.
func ProcessingMissRateByDegree(res SimResult, degrees []uint32) *DegreeSeries {
	return missRateSeries(res, res.DestMisses, degrees)
}

func missRateSeries(res SimResult, misses, degrees []uint32) *DegreeSeries {
	var maxDeg uint32 = 1
	for _, d := range degrees {
		if d > maxDeg {
			maxDeg = d
		}
	}
	bins := LogBins(maxDeg)
	s := NewDegreeSeries(bins)
	if res.Canceled || len(misses) != len(degrees) {
		return s
	}
	// Aggregate accesses and misses per bin, storing the rate as a
	// weighted mean: Sum accumulates misses (scaled to percent), Count
	// accumulates accesses (the degrees), so Mean() yields the per-bin
	// miss rate.
	for v, deg := range degrees {
		if deg == 0 {
			continue
		}
		i := bins.Index(deg)
		s.Sum[i] += 100 * float64(misses[v])
		s.Count[i] += uint64(deg)
	}
	return s
}

// MissesAboveDegree returns the total number of simulated misses incurred
// accessing data of vertices whose degree exceeds minDegree (Table III).
func MissesAboveDegree(res SimResult, degrees []uint32, minDegree uint32) uint64 {
	var total uint64
	for v, m := range res.VertexMisses {
		if degrees[v] > minDegree {
			total += uint64(m)
		}
	}
	return total
}
