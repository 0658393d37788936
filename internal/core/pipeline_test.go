package core

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"graphlocality/internal/cachesim"
	"graphlocality/internal/gen"
	"graphlocality/internal/graph"
	"graphlocality/internal/runctl"
	"graphlocality/internal/trace"
)

// The fast path is a pipeline: a generator goroutine, the cache stage on
// the caller's goroutine, and an observer goroutine for the TLB and the
// per-vertex attribution. These tests pin its lifecycle: what a canceled
// run covers, that no goroutine outlives a call, that a helper's panic
// reaches the caller, and that the result does not depend on how many
// cores the stages get.

// cancelAfter is a context that reports itself done from the (k+1)-th
// call of Done on. The fast path polls once per block and the reference
// once per runctl.DefaultPollInterval accesses, so both stop after the
// same k+1 blocks.
type cancelAfter struct {
	context.Context
	k, calls int
}

var closedDone = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

func (c *cancelAfter) Done() <-chan struct{} {
	c.calls++
	if c.calls > c.k {
		return closedDone
	}
	return nil
}

func (c *cancelAfter) Err() error {
	if c.calls > c.k {
		return context.Canceled
	}
	return nil
}

// TestPipelineCancelCoversWholeBlocks checks a canceled run: its counters
// cover a whole number of blocks, the TLB and the attribution saw exactly
// the blocks the cache did, and the result equals the reference stopped
// at the same access count.
func TestPipelineCancelCoversWholeBlocks(t *testing.T) {
	if simBatchSize != runctl.DefaultPollInterval {
		t.Fatalf("block size %d differs from the reference's poll interval %d", simBatchSize, runctl.DefaultPollInterval)
	}
	g := gen.SocialNetwork(11, 16, 5)
	tlb := cachesim.ScaledTLB(trace.NewLayout(g).FootprintBytes(), 0.10)
	for _, k := range []int{0, 3, 10} {
		opts := func() SimOptions {
			return SimOptions{Ctx: &cancelAfter{Context: context.Background(), k: k},
				Threads: 4, TLB: &tlb, PerVertex: true, SnapshotEvery: 3000}
		}
		fast := SimulateSpMV(g, opts())
		if !fast.Canceled {
			t.Fatalf("k=%d: run not marked Canceled", k)
		}
		if want := uint64(k+1) * simBatchSize; fast.Cache.Accesses != want {
			t.Errorf("k=%d: cache saw %d accesses, want %d (whole blocks)", k, fast.Cache.Accesses, want)
		}
		if fast.TLB.Accesses != fast.Cache.Accesses {
			t.Errorf("k=%d: TLB saw %d accesses, cache %d", k, fast.TLB.Accesses, fast.Cache.Accesses)
		}
		var vm, dm uint64
		for v := range fast.VertexMisses {
			vm += uint64(fast.VertexMisses[v])
			dm += uint64(fast.DestMisses[v])
		}
		if vm != dm || vm > fast.Cache.Misses {
			t.Errorf("k=%d: attributed %d/%d misses, cache missed %d", k, vm, dm, fast.Cache.Misses)
		}
		if ref := SimulateSpMVReference(g, opts()); !reflect.DeepEqual(fast, ref) {
			t.Errorf("k=%d: canceled fast path %+v differs from canceled reference %+v", k, fast.Cache, ref.Cache)
		}
	}
}

// panicTopology is a graph whose row cursor serves the first half of its
// rows and then panics with boom, so the generator goroutine panics after
// several blocks have gone down the pipeline.
type panicTopology struct {
	*graph.Graph
	boom any
}

func (p panicTopology) Rows(in bool, lo, hi uint32) graph.RowCursor {
	return &panicCursor{RowCursor: p.Graph.Rows(in, lo, hi), boom: p.boom}
}

type panicCursor struct {
	graph.RowCursor
	boom  any
	spans int
}

func (c *panicCursor) Next() (uint32, []uint64, []uint32, bool) {
	if c.spans++; c.spans > 1 {
		panic(c.boom)
	}
	base, off, adj, ok := c.RowCursor.Next()
	if ok {
		off = off[:len(off)/2+1]
	}
	return base, off, adj, ok
}

// panicCtx is a context whose Done panics, so the cache stage, which
// polls it once per block, panics on the caller's goroutine.
type panicCtx struct{ context.Context }

func (panicCtx) Done() <-chan struct{} { panic("poll failed") }

// panicking runs f and returns what it panicked with (nil if it did not).
func panicking(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

// TestPipelineHelperPanicReraised checks a panic on the generator
// goroutine re-panics on the caller's with the original value, with and
// without the observer stage, and that runctl's stage isolation catches
// it as a StageError carrying that value.
func TestPipelineHelperPanicReraised(t *testing.T) {
	base := gen.ErdosRenyi(4096, 20000, 3)
	tlb := cachesim.ScaledTLB(trace.NewLayout(base).FootprintBytes(), 0.10)
	boom := errors.New("row cursor failed")
	g := panicTopology{Graph: base, boom: boom}
	for _, opts := range []SimOptions{{}, {TLB: &tlb, PerVertex: true}} {
		if got := panicking(func() { SimulateSpMV(g, opts) }); got != boom {
			t.Errorf("opts %+v: recovered %v, want the cursor's panic value", opts, got)
		}
		err := runctl.New(context.Background(), runctl.Config{}).Run("simulate", func(context.Context) error {
			SimulateSpMV(g, opts)
			return nil
		})
		var se *runctl.StageError
		if !errors.As(err, &se) || se.Recovered != boom {
			t.Errorf("opts %+v: runctl returned %v, want a StageError recovering the cursor's panic", opts, err)
		}
	}
}

// TestPipelineLeavesNoGoroutine checks that after a normal run, a
// canceled one, and one that panics on a helper or on the cache stage, the
// goroutine count returns to its prior value.
func TestPipelineLeavesNoGoroutine(t *testing.T) {
	g := gen.ErdosRenyi(4096, 20000, 4)
	tlb := cachesim.ScaledTLB(trace.NewLayout(g).FootprintBytes(), 0.10)
	full := SimOptions{TLB: &tlb, PerVertex: true}
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	runs := map[string]func(){
		"normal":       func() { SimulateSpMV(g, full) },
		"plain":        func() { SimulateSpMV(g, SimOptions{}) },
		"canceled":     func() { o := full; o.Ctx = dead; SimulateSpMV(g, o) },
		"helper panic": func() { panicking(func() { SimulateSpMV(panicTopology{Graph: g, boom: "boom"}, full) }) },
		"cache panic": func() {
			o := full
			o.Ctx = panicCtx{context.Background()}
			if v := panicking(func() { SimulateSpMV(g, o) }); v != "poll failed" {
				t.Errorf("cache-stage panic: recovered %v", v)
			}
		},
	}
	for name, run := range runs {
		before := runtime.NumGoroutine()
		run()
		// A helper that has signalled its end may still be on its way out;
		// give it a moment, but not forever.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("%s: %d goroutines after the run, %d before", name, n, before)
		}
	}
}

// TestPipelineMatchesReferenceAcrossGOMAXPROCS checks SimulateSpMV equals
// SimulateSpMVReference on the TestSimCountersPinned grid, with and
// without per-vertex attribution, whether its stages share one P, two or
// four.
func TestPipelineMatchesReferenceAcrossGOMAXPROCS(t *testing.T) {
	graphs := pinnedStandard()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, set := range simPinSets {
		for i, g := range graphs {
			for _, perVertex := range []bool{false, true} {
				opts := set.opts(g)
				opts.PerVertex = perVertex
				ref := SimulateSpMVReference(g, opts)
				for _, procs := range []int{1, 2, 4} {
					runtime.GOMAXPROCS(procs)
					if fast := SimulateSpMV(g, opts); !reflect.DeepEqual(fast, ref) {
						t.Errorf("%s graph %d perVertex=%v GOMAXPROCS=%d: fast %+v, reference %+v",
							set.name, i, perVertex, procs, fast.Cache, ref.Cache)
					}
				}
			}
		}
	}
}

// TestPipelineConcurrentCalls runs simulations with and without records
// on several goroutines at once, as a session's parallel cells and
// serve's workers do, so the shared ring pools are reached from several
// pipelines together; each result must equal the reference.
func TestPipelineConcurrentCalls(t *testing.T) {
	g := gen.SocialNetwork(10, 12, 6)
	tlb := cachesim.ScaledTLB(trace.NewLayout(g).FootprintBytes(), 0.10)
	sets := []SimOptions{{}, {PerVertex: true}, {Threads: 4, TLB: &tlb, PerVertex: true}, {Direction: trace.Push}}
	refs := make([]SimResult, len(sets))
	for i, o := range sets {
		refs[i] = SimulateSpMVReference(g, o)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				i := (w + r) % len(sets)
				if got := SimulateSpMV(g, sets[i]); !reflect.DeepEqual(got, refs[i]) {
					t.Errorf("goroutine %d, set %d: %+v, reference %+v", w, i, got.Cache, refs[i].Cache)
				}
			}
		}(w)
	}
	wg.Wait()
}
