package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"graphlocality/internal/cachesim"
	"graphlocality/internal/graph"
	"graphlocality/internal/trace"
)

// The multicore simulation pipeline. A cache simulation is inherently
// serial — every access's outcome depends on the state left by all earlier
// accesses, and DRRIP/BRRIP carry global policy state — so the pipeline
// never splits the cache. Instead it splits everything around the cache:
//
//	producers (parallel)      chunked trace generation
//	cache consumer (serial)   AccessBatch in exact stream order, ECS, bytes
//	TLB stage (concurrent)    independent state, fed the same ordered stream
//	attribution (parallel)    per-worker private count arrays, exact merge
//
// Producers cut [0, |V|) into contiguous chunks and stream each chunk's
// blocks over a per-chunk channel; the consumer drains chunks in index
// order, so by the concatenation property of trace.Generate over vertex
// ranges the cache sees exactly the serial stream — bit-exact for
// every policy, direction, prefetch and snapshot setting. The TLB has no
// state in common with the cache, so it can run a block behind on its own
// goroutine; per-vertex attribution sums uint32 counters, so per-worker
// private arrays merged in worker order reproduce the serial counts
// exactly. The differential suite (TestMulticore* in differential_test.go)
// pins all of this to SimulateSpMVReference.
//
// Emulated Threads > 1 (the paper's interleaved stream) has a single
// generator by construction; the pipeline still gains by overlapping
// generation, cache, TLB and attribution.

// mcChunksPerWorker over-decomposes the vertex range so a producer that
// lands on a cheap chunk moves on instead of idling (same rationale as
// spmv.ChunksPerThread).
const mcChunksPerWorker = 4

// mcBlock is one block in flight through the pipeline: a copy of a
// generator block plus the per-access hit flags the cache stage fills
// when per-vertex attribution runs.
type mcBlock struct {
	trace.Block
	hits []bool
}

// copyFrom makes b a copy of src, reusing b's columns.
func (b *mcBlock) copyFrom(src *trace.Block) {
	b.Addrs = append(b.Addrs[:0], src.Addrs...)
	b.Writes = append(b.Writes[:0], src.Writes...)
	b.EdgeReads = src.EdgeReads
	b.Kinds = append(b.Kinds[:0], src.Kinds...)
	b.Vertices = append(b.Vertices[:0], src.Vertices...)
	b.Dests = append(b.Dests[:0], src.Dests...)
}

// simulateMulticore is the Workers > 1 fast path behind SimulateSpMV. It
// produces a SimResult bit-identical to simulateBatched (and therefore to
// SimulateSpMVReference) for every option combination; see the pipeline
// model above. Cancellation granularity is one block at the cache stage,
// like the batched path.
func simulateMulticore(g graph.Topology, opts SimOptions) SimResult {
	workers := min(opts.Workers, runtime.GOMAXPROCS(0))
	if workers < 2 {
		// Serial fall-through for direct callers; SimulateSpMV already
		// routes 1-core runs to the batched path.
		return simulateBatched(g, opts)
	}
	opts = opts.normalize(g)
	perVertex := opts.PerVertex

	// Chunk plan: the sequential stream is a concatenation of per-range
	// sub-streams, so edge-balanced contiguous ranges drained in order
	// reproduce it exactly. The emulated-parallel stream interleaves
	// partitions and cannot be chunked; it runs as one producer.
	var streams []trace.Stream
	if opts.Threads == 1 {
		for _, r := range g.PartitionEdgeBalanced(opts.Direction == trace.Pull, workers*mcChunksPerWorker) {
			streams = append(streams, trace.Stream{Dir: opts.Direction, Range: r})
		}
	} else {
		streams = []trace.Stream{opts.stream(g)}
	}
	nChunks := len(streams)
	c := newBlockConsumer(g, opts)

	pool := sync.Pool{New: func() any {
		b := new(mcBlock)
		if perVertex {
			b.hits = make([]bool, simBatchSize)
		}
		return b
	}}

	chans := make([]chan *mcBlock, nChunks)
	for i := range chans {
		chans[i] = make(chan *mcBlock, 2)
	}
	// stop aborts producers on cancellation; closed at most once, by the
	// consumer.
	stop := make(chan struct{})

	// produceChunk streams chunk i's sub-stream into chans[i], copying
	// each generator block into a pooled mcBlock. The channel is closed
	// even on early stop so the consumer's drain always terminates for
	// chunks that started.
	produceChunk := func(i int) bool {
		ch := chans[i]
		defer close(ch)
		return trace.Generate(g, c.layout, streams[i], simBatchSize, perVertex, func(blk *trace.Block) bool {
			b := pool.Get().(*mcBlock)
			b.copyFrom(blk)
			select {
			case ch <- b:
				return true
			case <-stop:
				return false
			}
		})
	}

	// Producers claim chunk indices from an atomic cursor; a chunk is
	// always claimed before any later chunk, so the producer of the chunk
	// the consumer is draining can only be blocked on that same chunk's
	// channel — the pipeline cannot deadlock.
	prodWorkers := min(workers, nChunks)
	var nextChunk atomic.Int64
	var prodWG sync.WaitGroup
	prodWG.Add(prodWorkers)
	for p := 0; p < prodWorkers; p++ {
		go func() {
			defer prodWG.Done()
			for {
				i := int(nextChunk.Add(1)) - 1
				if i >= nChunks {
					return
				}
				if !produceChunk(i) {
					return
				}
			}
		}()
	}

	// Downstream stages, built back to front. Routing after the cache
	// stage is exclusive: consumer → TLB → attribution → pool, skipping
	// absent stages.
	forward := func(b *mcBlock) { pool.Put(b) }
	var tlb *cachesim.TLB
	var tlbStage, attrStage *mcStage
	var attrParts []*attribution
	if perVertex {
		attrParts = make([]*attribution, workers)
		for w := range attrParts {
			attrParts[w] = newAttribution(g.NumVertices(), opts.Direction)
		}
		attrStage = startStage(workers, workers, func(w int, b *mcBlock) { attrParts[w].add(&b.Block, b.hits) }, forward)
		forward = attrStage.send
	}
	if opts.TLB != nil {
		tlb = cachesim.NewTLB(*opts.TLB)
		// The TLB's AccessBatch is cut-invariant, so one call per block
		// yields the same final Stats as the batched path's
		// snapshot-split calls.
		tlbStage = startStage(1, workers, func(_ int, b *mcBlock) { tlb.AccessBatch(b.Addrs, nil) }, forward)
		forward = tlbStage.send
	}

	// Cache consumer — this goroutine, running the same blockConsumer as
	// simulateBatched over the blocks in exact stream order.
	canceled := false
consume:
	for i := 0; i < nChunks; i++ {
		for b := range chans[i] {
			ok := c.consume(&b.Block, b.hits)
			forward(b)
			if !ok {
				canceled = true
				break consume
			}
		}
	}
	if canceled {
		close(stop)
	}
	prodWG.Wait()
	var res SimResult
	c.result(&res)
	if tlbStage != nil {
		tlbStage.close()
		res.TLB = tlb.Stats()
	}
	if attrStage != nil {
		attrStage.close()
		for _, p := range attrParts[1:] {
			attrParts[0].merge(p)
		}
		attrParts[0].result(&res)
	}
	res.Canceled = canceled
	return res
}

// mcStage is a downstream pipeline stage: goroutines that apply a function
// to every block sent to the stage and hand the block on.
type mcStage struct {
	ch chan *mcBlock
	wg sync.WaitGroup
}

// startStage starts n goroutines that apply f (with the goroutine's index)
// to each block sent to the stage, then pass it to next. The stage buffers
// up to buf blocks; the callers give it one per pipeline worker, so the
// cache stage rarely waits on a downstream stage.
func startStage(n, buf int, f func(w int, b *mcBlock), next func(*mcBlock)) *mcStage {
	st := &mcStage{ch: make(chan *mcBlock, buf)}
	st.wg.Add(n)
	for w := 0; w < n; w++ {
		go func(w int) {
			defer st.wg.Done()
			for b := range st.ch {
				f(w, b)
				next(b)
			}
		}(w)
	}
	return st
}

func (st *mcStage) send(b *mcBlock) { st.ch <- b }

// close waits until the stage has passed on every block sent to it.
func (st *mcStage) close() {
	close(st.ch)
	st.wg.Wait()
}
