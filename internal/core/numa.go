package core

import (
	"graphlocality/internal/cachesim"
	"graphlocality/internal/graph"
	"graphlocality/internal/trace"
)

// NUMAResult holds the per-socket counters of a multi-socket simulation.
type NUMAResult struct {
	// Sockets holds each socket's shared-L3 statistics.
	Sockets []cachesim.Stats
	// TotalMisses sums socket misses (memory traffic).
	TotalMisses uint64
}

// SimulateSpMVNUMA models the paper's 2-socket machine shape: the
// emulated workers are split evenly across `sockets`, each socket has its
// own shared L3 of the given geometry, and each worker's accesses go to
// its socket's cache. Compared to the single-cache simulation this
// exposes the cost of splitting the shared working set: vertex data hot
// on both sockets occupies lines in both caches.
//
// g is any Topology (in-RAM or segment-backed). Honoured options:
// Direction (default Pull), Threads (raised to at least `sockets`),
// Interval (replay slice granularity, default 1024) and Cache.
func SimulateSpMVNUMA(g graph.Topology, opts SimOptions, sockets int) NUMAResult {
	sockets = max(sockets, 1)
	opts = opts.normalize(g)
	opts.Threads = max(opts.Threads, sockets)
	caches := make([]*cachesim.Cache, sockets)
	for i := range caches {
		caches[i] = cachesim.New(opts.Cache)
	}
	logs := trace.CollectLogs(g, trace.NewLayout(g), opts.Direction, opts.Threads)
	perSocket := (opts.Threads + sockets - 1) / sockets
	// Each replayed interval slice belongs to one thread — and therefore to
	// one socket — so the whole slice feeds that socket's cache in a single
	// batched call.
	trace.Replay(logs, opts.Interval, func(thread int, b *trace.Block) {
		caches[thread/perSocket].AccessBatch(b.Addrs, b.Writes, nil)
	})
	var res NUMAResult
	for _, c := range caches {
		st := c.Stats()
		res.Sockets = append(res.Sockets, st)
		res.TotalMisses += st.Misses
	}
	return res
}
