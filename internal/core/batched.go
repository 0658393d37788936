package core

import (
	"sync"

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

// ringSize is the number of blocks in flight between the stages of the
// fast path: enough that neither helper waits on the cache stage for
// every block, few enough that the ring stays in the L2 cache.
const ringSize = 8

// simulateBatched is the fast path behind SimulateSpMV. It produces a
// SimResult bit-identical to SimulateSpMVReference for every policy,
// direction, prefetch and snapshot setting (the differential suite
// enforces this) while avoiding all per-access call overhead. It is a
// pipeline of three stages over a ring of reused blocks:
//
//   - a helper goroutine fills the blocks with trace.GenerateInto, with
//     the Kinds/Vertices/Dests columns only for PerVertex;
//   - the caller's goroutine runs the cache stage (blockConsumer): the
//     cache's AccessBatch, the exact ECS snapshots and the context poll.
//     It is the only order-dependent stage, and the only one that touches
//     the cache, whose DRRIP PSEL and BRRIP counter are global;
//   - a second helper, when there is a TLB or PerVertex is set, drives the
//     TLB and the per-vertex attribution from each block and the cache's
//     hit flags for it (observers). Neither shares state with the cache.
//
// Every stage sees the blocks in stream order, so the result does not
// depend on how the stages overlap, or whether they do: on one core they
// take turns. A helper's panic is re-raised on the caller's goroutine
// with its original value, and no goroutine outlives the call.
//
// Cancellation is coarser than the reference's: the context is checked
// once per block, and a canceled run's counters cover a whole number of
// blocks, the same blocks for the cache, the TLB and the attribution.
func simulateBatched(g graph.Topology, opts SimOptions) SimResult {
	opts = opts.normalize(g)
	c := newBlockConsumer(g, opts)
	obs := newObservers(g, opts)
	var res SimResult
	res.Canceled = !runPipeline(g, c.layout, opts.stream(g), opts.PerVertex, c, obs)
	c.result(&res)
	obs.result(&res)
	return res
}

// slot is one block of the ring with the cache's hit flags for it.
type slot struct {
	b    *trace.Block
	hits []bool // nil unless the block carries records
}

// ringPools recycle whole rings across calls, one pool for blocks with
// the record columns and one without, so a simulation allocates no
// blocks in the steady state.
var ringPools [2]sync.Pool

func ringPool(records bool) *sync.Pool {
	if records {
		return &ringPools[1]
	}
	return &ringPools[0]
}

func getRing(records bool) *[ringSize]slot {
	if r, ok := ringPool(records).Get().(*[ringSize]slot); ok {
		return r
	}
	r := new([ringSize]slot)
	for i := range r {
		r[i].b = trace.NewBlock(simBatchSize, records)
		if records {
			r[i].hits = make([]bool, simBatchSize)
		}
	}
	return r
}

// runPipeline streams s over g through the three stages (see
// simulateBatched) and reports whether it ran to completion, that is,
// whether the context stayed alive. obs may be nil.
func runPipeline(g graph.Topology, l trace.Layout, s trace.Stream, records bool, c *blockConsumer, obs *observers) (completed bool) {
	ring := getRing(records)
	// Every channel can hold the whole ring, so a send never blocks: only
	// receives wait.
	free := make(chan *slot, ringSize)
	full := make(chan *slot, ringSize)
	for i := range ring {
		free <- &ring[i]
	}
	var observed chan *slot
	stop := make(chan struct{})
	var halt sync.Once
	stopAll := func() { halt.Do(func() { close(stop) }) }
	var wg sync.WaitGroup
	var genPanic, obsPanic any

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(full)
		defer func() { genPanic = recover() }()
		var cur *slot
		trace.GenerateInto(g, l, s, func() *trace.Block {
			select {
			case cur = <-free:
				return cur.b
			case <-stop:
				return nil
			}
		}, func(*trace.Block) bool {
			full <- cur
			return true
		})
	}()
	if obs != nil {
		observed = make(chan *slot, ringSize)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if obsPanic = recover(); obsPanic != nil {
					stopAll()
				}
			}()
			for sl := range observed {
				obs.observe(sl)
				free <- sl
			}
		}()
	}
	// Runs on every exit, a panic of the cache stage included: stop the
	// generator, let the observers finish what the cache handed them, and
	// wait for both helpers before the ring goes back to its pool.
	defer func() {
		stopAll()
		if observed != nil {
			close(observed)
		}
		wg.Wait()
		ringPool(records).Put(ring)
		if genPanic != nil {
			panic(genPanic)
		}
		if obsPanic != nil {
			panic(obsPanic)
		}
	}()

	completed = true
	for sl := range full {
		if !completed {
			continue // canceled: drop what the generator had queued
		}
		var hits []bool
		if sl.hits != nil {
			hits = sl.hits[:len(sl.b.Addrs)]
		}
		completed = c.consume(sl.b, hits)
		if observed != nil {
			observed <- sl
		} else {
			free <- sl
		}
		if !completed {
			stopAll()
		}
	}
	return completed
}

// blockConsumer is the cache stage of the fast path. It feeds each block
// to the cache, splits blocks at exact ECS snapshot points so the cache
// is scanned at the same access counts as the scalar reference, folds
// bytes touched from the block's edge-read count, and polls the context
// once per block.
type blockConsumer struct {
	cache      *cachesim.Cache
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
	return &blockConsumer{
		cache:      cachesim.New(opts.Cache),
		layout:     trace.NewLayout(g),
		every:      uint64(max(opts.SnapshotEvery, 0)),
		totalLines: float64(opts.Cache.Sets * opts.Cache.Ways),
		// One context check per block: every=1 makes each Check inspect
		// the context, and consume calls it once per block.
		poll: runctl.NewPoller(opts.Ctx, 1),
	}
}

// consume feeds block b to the cache; hits, when non-nil, receives the
// per-access hit flags. It reports whether the context is still alive.
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
	res.Snapshots = c.snapshots
	if c.snapshots > 0 {
		res.ECS = c.ecsSum / float64(c.snapshots)
	}
}

// observers is the third stage of the fast path: the TLB and the
// per-vertex attribution. Each reads a block after the cache stage is done
// with it, and neither shares state with the cache.
type observers struct {
	tlb  *cachesim.TLB // nil when absent
	attr *attribution  // nil unless PerVertex
}

// newObservers builds the stage for normalized opts over g; it is nil
// when there is nothing to observe.
func newObservers(g graph.Dims, opts SimOptions) *observers {
	if opts.TLB == nil && !opts.PerVertex {
		return nil
	}
	o := &observers{}
	if opts.TLB != nil {
		o.tlb = cachesim.NewTLB(*opts.TLB)
	}
	if opts.PerVertex {
		o.attr = newAttribution(g.NumVertices(), opts.Direction)
	}
	return o
}

// observe drives the TLB with the block's addresses and attributes its
// misses from the cache's hit flags.
func (o *observers) observe(sl *slot) {
	if o.tlb != nil {
		o.tlb.AccessBatch(sl.b.Addrs, nil)
	}
	if o.attr != nil {
		o.attr.add(sl.b, sl.hits[:len(sl.b.Addrs)])
	}
}

// result stores the stage's counters in res; o may be nil.
func (o *observers) result(res *SimResult) {
	if o == nil {
		return
	}
	if o.tlb != nil {
		res.TLB = o.tlb.Stats()
	}
	if o.attr != nil {
		o.attr.result(res)
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
