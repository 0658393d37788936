// Package spmv provides the parallel SpMV graph-traversal engine used for
// the "real execution" measurements (paper §III-B): an optimized CSR/CSC
// kernel with edge-balanced partitioning and work stealing, mirroring the
// paper's pthread master–worker runtime. Per-thread idle time is measured
// the way Table IV reports it: the average percentage of the traversal's
// wall-clock time each worker spends without work.
package spmv

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"graphlocality/internal/graph"
	"graphlocality/internal/obs"
	"graphlocality/internal/runctl"
)

// Stats describes one parallel traversal.
type Stats struct {
	Elapsed time.Duration
	// IdlePct is the mean over workers of (wall − busy)/wall, in percent.
	IdlePct float64
	// Steals counts chunks executed by a worker other than their owner.
	Steals int64
	// Threads is the worker count used.
	Threads int
	// Canceled reports that the traversal stopped early because its
	// context died; dst holds a partially updated result.
	Canceled bool
}

// Engine runs SpMV iterations over a fixed graph with a reusable
// partitioning. Create one per graph; safe for repeated use, not for
// concurrent use.
type Engine struct {
	g       *graph.Graph
	threads int
	// chunksPerThread controls work-stealing granularity.
	pullChunks []graph.Range
	pushChunks []graph.Range

	// Metrics, when non-nil, receives per-traversal observability: a
	// deterministic traversal counter plus wall-clock/idle/steal
	// measurements as histogram observations. The hot worker loops are
	// untouched — folding happens once per traversal.
	Metrics *obs.Registry
}

// ChunksPerThread is the work-stealing granularity: each worker owns this
// many edge-balanced chunks initially.
const ChunksPerThread = 8

// vertexBlock is the inner-loop blocking factor: the kernels process this
// many vertices between cancellation polls, so the poll branch is paid once
// per block instead of once per vertex. The poller's interval is scaled by
// the same factor (see run) to keep cancellation latency — in accesses —
// unchanged from the per-vertex loops.
const vertexBlock = 256

// blockEnd returns the end of the vertex block starting at lo within
// [lo, hi), guarding against uint32 wraparound near the top of the range.
func blockEnd(lo, hi uint32) uint32 {
	end := lo + vertexBlock
	if end > hi || end < lo {
		end = hi
	}
	return end
}

// New builds an engine with the given worker count (0 = GOMAXPROCS,
// resolved per traversal — see Threads). The chunk granularity is fixed at
// construction from the worker count in effect then; work stealing makes
// any later worker count correct over any chunk list, the partitioning is
// only a balance hint.
func New(g *graph.Graph, threads int) *Engine {
	hint := threads
	if hint < 1 {
		hint = runtime.GOMAXPROCS(0)
	}
	return &Engine{
		g:          g,
		threads:    threads,
		pullChunks: g.PartitionEdgeBalancedIn(hint * ChunksPerThread),
		pushChunks: g.PartitionEdgeBalancedOut(hint * ChunksPerThread),
	}
}

// Threads returns the worker count the next traversal will use: the
// configured count, or — when the engine was built with 0 — GOMAXPROCS at
// call time, so a runtime GOMAXPROCS change is picked up per traversal
// rather than latched at construction.
func (e *Engine) Threads() int { return e.workers() }

func (e *Engine) workers() int {
	if e.threads > 0 {
		return e.threads
	}
	return runtime.GOMAXPROCS(0)
}

// Pull performs dst[v] = Σ src[u] over v's in-neighbours u (Algorithm 1,
// pull direction over the CSC). dst and src must have |V| elements.
func (e *Engine) Pull(src, dst []float64) Stats {
	st, _ := e.PullContext(context.Background(), src, dst)
	return st
}

// PullContext is Pull with cooperative cancellation: every worker polls
// ctx each runctl.DefaultPollInterval vertices and stops claiming chunks
// once it dies, returning runctl.ErrCanceled (wrapped) with partial dst.
func (e *Engine) PullContext(ctx context.Context, src, dst []float64) (Stats, error) {
	g := e.g
	return e.run(ctx, e.pullChunks, func(r graph.Range, poll *runctl.Poller) error {
		adj := g.InEdges()
		off := g.InOffsets()
		for lo := r.Lo; lo < r.Hi; {
			if err := poll.Check(); err != nil {
				return err
			}
			hi := blockEnd(lo, r.Hi)
			for v := lo; v < hi; v++ {
				sum := 0.0
				for _, u := range adj[off[v]:off[v+1]] {
					sum += src[u]
				}
				dst[v] = sum
			}
			lo = hi
		}
		return nil
	})
}

// PushRead performs dst[v] = Σ src[u] over v's out-neighbours u — the
// "CSR read traversal" of Table VI, isolating format effects from
// read-vs-write effects.
func (e *Engine) PushRead(src, dst []float64) Stats {
	st, _ := e.PushReadContext(context.Background(), src, dst)
	return st
}

// PushReadContext is PushRead with cooperative cancellation.
func (e *Engine) PushReadContext(ctx context.Context, src, dst []float64) (Stats, error) {
	g := e.g
	return e.run(ctx, e.pushChunks, func(r graph.Range, poll *runctl.Poller) error {
		adj := g.OutEdges()
		off := g.OutOffsets()
		for lo := r.Lo; lo < r.Hi; {
			if err := poll.Check(); err != nil {
				return err
			}
			hi := blockEnd(lo, r.Hi)
			for v := lo; v < hi; v++ {
				sum := 0.0
				for _, u := range adj[off[v]:off[v+1]] {
					sum += src[u]
				}
				dst[v] = sum
			}
			lo = hi
		}
		return nil
	})
}

// Push performs dst[u] += src[v] for every out-edge (v,u) — the push
// direction, which needs atomic updates to protect concurrent writes
// (§II-F: "push direction has an additional cost for protecting the data
// of vertices"). dst must be zeroed by the caller.
func (e *Engine) Push(src, dst []float64) Stats {
	st, _ := e.PushContext(context.Background(), src, dst)
	return st
}

// PushContext is Push with cooperative cancellation.
func (e *Engine) PushContext(ctx context.Context, src, dst []float64) (Stats, error) {
	g := e.g
	return e.run(ctx, e.pushChunks, func(r graph.Range, poll *runctl.Poller) error {
		adj := g.OutEdges()
		off := g.OutOffsets()
		for lo := r.Lo; lo < r.Hi; {
			if err := poll.Check(); err != nil {
				return err
			}
			hi := blockEnd(lo, r.Hi)
			for v := lo; v < hi; v++ {
				x := src[v]
				for _, u := range adj[off[v]:off[v+1]] {
					atomicAddFloat64(&dst[u], x)
				}
			}
			lo = hi
		}
		return nil
	})
}

// run executes fn over every chunk with work stealing and measures idle
// time. Worker w owns chunks w*ChunksPerThread..; when its own list is
// exhausted it steals from the other workers' lists round-robin. When fn
// reports cancellation the worker stops claiming chunks; the first error
// is returned alongside the (partial) stats.
func (e *Engine) run(ctx context.Context, chunks []graph.Range, fn func(graph.Range, *runctl.Poller) error) (Stats, error) {
	nw := e.workers()
	// Per-owner cursors into the chunk list.
	type queue struct {
		next int64
		lo   int
		hi   int
	}
	queues := make([]queue, nw)
	per := (len(chunks) + nw - 1) / nw
	for w := 0; w < nw; w++ {
		lo := w * per
		hi := lo + per
		if lo > len(chunks) {
			lo = len(chunks)
		}
		if hi > len(chunks) {
			hi = len(chunks)
		}
		queues[w] = queue{next: int64(lo), lo: lo, hi: hi}
	}
	var steals int64
	busy := make([]time.Duration, nw)
	errs := make([]error, nw)

	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// One Check per vertexBlock vertices: scale the poll interval
			// down by the blocking factor so the context is still inspected
			// about every DefaultPollInterval vertices.
			every := runctl.DefaultPollInterval / vertexBlock
			if every < 1 {
				every = 1
			}
			poll := runctl.NewPoller(ctx, every)
			var my time.Duration
			// Own queue first, then steal from victims.
			for vi := 0; vi < nw && errs[w] == nil; vi++ {
				victim := (w + vi) % nw
				for {
					i := atomic.AddInt64(&queues[victim].next, 1) - 1
					if i >= int64(queues[victim].hi) {
						break
					}
					if vi != 0 {
						atomic.AddInt64(&steals, 1)
					}
					t0 := time.Now()
					err := fn(chunks[i], poll)
					my += time.Since(t0)
					if err != nil {
						errs[w] = err
						break
					}
				}
			}
			busy[w] = my
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)

	var firstErr error
	for _, err := range errs {
		if err != nil {
			firstErr = err
			break
		}
	}
	var idleSum float64
	for _, b := range busy {
		frac := 1 - float64(b)/float64(wall)
		if frac < 0 {
			frac = 0
		}
		idleSum += frac
	}
	st := Stats{
		Elapsed:  wall,
		IdlePct:  100 * idleSum / float64(nw),
		Steals:   steals,
		Threads:  nw,
		Canceled: firstErr != nil,
	}
	e.Metrics.Counter("spmv.traversals").Inc()
	e.Metrics.Histogram("spmv.traversal_ms").Observe(float64(wall.Microseconds()) / 1000)
	e.Metrics.Histogram("spmv.idle_pct").Observe(st.IdlePct)
	e.Metrics.Histogram("spmv.steals").Observe(float64(steals))
	return st, firstErr
}

// atomicAddFloat64 adds x to *p with a CAS loop — the concurrency
// protection cost inherent to push traversals.
func atomicAddFloat64(p *float64, x float64) {
	addr := (*uint64)(unsafe.Pointer(p))
	for {
		old := atomic.LoadUint64(addr)
		nw := math.Float64bits(math.Float64frombits(old) + x)
		if atomic.CompareAndSwapUint64(addr, old, nw) {
			return
		}
	}
}
