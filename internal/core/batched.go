package core

import (
	"graphlocality/internal/cachesim"
	"graphlocality/internal/graph"
	"graphlocality/internal/runctl"
	"graphlocality/internal/trace"
)

// simBatchSize is the block granularity of the fast path: the trace
// generator delivers blocks of this many accesses, the cache and TLB
// consume them through AccessBatch, and the context is polled once per
// block (so effective cancellation granularity is one block, on the order
// of runctl.DefaultPollInterval accesses).
const simBatchSize = trace.DefaultBatchSize

// simulateBatched is the serial fast path behind SimulateSpMV. It produces
// a SimResult bit-identical to SimulateSpMVReference for every policy,
// direction, prefetch and snapshot setting (the differential suite
// enforces this) while avoiding all per-access call overhead:
//
//   - the access stream arrives from trace.Generate in columnar blocks,
//     with the Kinds/Vertices/Dests columns filled only for PerVertex;
//   - one blockConsumer feeds each block to the cache and TLB through
//     AccessBatch, splitting it at exact ECS snapshot points;
//   - per-vertex attribution runs as a tight loop over the block's
//     columns.
//
// Cancellation is coarser than the reference's: the context is checked
// once per block, and a canceled run's counters cover a whole number of
// blocks.
func simulateBatched(g graph.Topology, opts SimOptions) SimResult {
	opts = opts.normalize(g)
	c := newBlockConsumer(g, opts)
	var attr *attribution
	var hits []bool
	if opts.PerVertex {
		attr = newAttribution(g.NumVertices(), opts.Direction)
		hits = make([]bool, simBatchSize)
	}
	var res SimResult
	res.Canceled = !trace.Generate(g, c.layout, opts.stream(g), simBatchSize, opts.PerVertex, func(b *trace.Block) bool {
		if attr == nil {
			return c.consume(b, nil)
		}
		ok := c.consume(b, hits)
		attr.add(b, hits)
		return ok
	})
	c.result(&res)
	if attr != nil {
		attr.result(&res)
	}
	return res
}

// blockConsumer is the cache stage of the fast path. It feeds each block
// to the cache (and to the TLB, when there is one), splits blocks at
// exact ECS snapshot points so the cache is scanned at the same access
// counts as the scalar reference, folds bytes touched from the block's
// edge-read count, and polls the context once per block.
type blockConsumer struct {
	cache      *cachesim.Cache
	tlb        *cachesim.TLB // nil when absent
	layout     trace.Layout
	every      uint64 // SnapshotEvery
	totalLines float64
	poll       *runctl.Poller

	accesses  uint64
	bytes     uint64
	ecsSum    float64
	snapshots int
}

// newBlockConsumer builds the cache stage for normalized opts over g.
func newBlockConsumer(g graph.Dims, opts SimOptions) *blockConsumer {
	c := &blockConsumer{
		cache:      cachesim.New(opts.Cache),
		layout:     trace.NewLayout(g),
		every:      uint64(max(opts.SnapshotEvery, 0)),
		totalLines: float64(opts.Cache.Sets * opts.Cache.Ways),
		// One context check per block: every=1 makes each Check inspect
		// the context, and consume calls it once per block.
		poll: runctl.NewPoller(opts.Ctx, 1),
	}
	if opts.TLB != nil {
		c.tlb = cachesim.NewTLB(*opts.TLB)
	}
	return c
}

// consume feeds block b through the stage; hits, when non-nil, receives
// the per-access cache hit flags. It reports whether the context is still
// alive.
func (c *blockConsumer) consume(b *trace.Block, hits []bool) bool {
	n := len(b.Addrs)
	// Element sizes per the paper's representation: 4 B edges, 8 B
	// everything else.
	c.bytes += uint64(trace.VertexDataBytes*n - (trace.VertexDataBytes-trace.EdgeBytes)*b.EdgeReads)
	for off := 0; off < n; {
		sub := n - off
		if c.every > 0 {
			if untilSnap := (c.accesses/c.every+1)*c.every - c.accesses; untilSnap < uint64(sub) {
				sub = int(untilSnap)
			}
		}
		var hs []bool
		if hits != nil {
			hs = hits[off : off+sub]
		}
		c.cache.AccessBatch(b.Addrs[off:off+sub], b.Writes[off:off+sub], hs)
		if c.tlb != nil {
			c.tlb.AccessBatch(b.Addrs[off:off+sub], nil)
		}
		c.accesses += uint64(sub)
		if c.every > 0 && c.accesses%c.every == 0 {
			c.snapshot()
		}
		off += sub
	}
	return c.poll.Check() == nil
}

// snapshot scans the cache and records the share of its capacity holding
// old vertex-data lines.
func (c *blockConsumer) snapshot() {
	var dataLines int
	c.cache.Snapshot(func(line uint64) {
		if c.layout.InOldData(line) {
			dataLines++
		}
	})
	c.ecsSum += 100 * float64(dataLines) / c.totalLines
	c.snapshots++
}

// result stores the stage's counters in res.
func (c *blockConsumer) result(res *SimResult) {
	res.Cache = c.cache.Stats()
	res.BytesTouched = c.bytes
	if c.tlb != nil {
		res.TLB = c.tlb.Stats()
	}
	res.Snapshots = c.snapshots
	if c.snapshots > 0 {
		res.ECS = c.ecsSum / float64(c.snapshots)
	}
}

// attribution holds the per-vertex miss counters of the random
// vertex-data accesses, by data owner (vm) and by processing vertex (dm).
type attribution struct {
	randKind trace.Kind
	vm, dm   []uint32
}

// newAttribution allocates zeroed counters for n vertices. The random
// vertex-data accesses are the neighbour-data writes in push and the
// neighbour-data reads in pull/push-read; the own-data access that ends
// each vertex has the other kind, so comparing Kind against randKind
// selects exactly the accesses the reference attributes.
func newAttribution(n uint32, dir trace.Direction) *attribution {
	a := &attribution{
		randKind: trace.KindVertexRead,
		vm:       make([]uint32, n),
		dm:       make([]uint32, n),
	}
	if dir == trace.Push {
		a.randKind = trace.KindVertexWrite
	}
	return a
}

// add counts the misses of block b's random vertex-data accesses from
// its Kinds, Vertices and Dests columns; hits are the block's cache
// outcomes.
func (a *attribution) add(b *trace.Block, hits []bool) {
	for i, k := range b.Kinds {
		if k == a.randKind && !hits[i] {
			a.vm[b.Vertices[i]]++
			a.dm[b.Dests[i]]++
		}
	}
}

// result stores the counters in res.
func (a *attribution) result(res *SimResult) {
	res.VertexMisses, res.DestMisses = a.vm, a.dm
}
