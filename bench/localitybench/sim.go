package main

import (
	"fmt"
	"runtime"
	"time"

	"graphlocality/internal/cachesim"
	"graphlocality/internal/core"
	"graphlocality/internal/graph"
	"graphlocality/internal/trace"
)

// simCase is one simulate op: an input and an option set.
type simCase struct {
	in    input
	label string
	opts  core.SimOptions
}

func (c simCase) key() string { return c.in.name + "/" + c.label }

// simWorkload runs core.SimulateSpMV over a fixed list of cases.
type simWorkload struct {
	cases []simCase
	// speedup adds the Workers=1 against Workers=NumCPU probe.
	speedup bool
}

func setupSimPull(cfg config, tr *tracer) (instance, error) {
	return newSimWorkload(cfg, 0, tr, true, func(input) []simCase {
		return []simCase{{label: "pull"}}
	}), nil
}

// tablesShift shrinks sim-tables' graphs 2-fold: its four option sets
// over the full graphs take about 1.7 s a pass, and a run must hold at
// least minWindows passes.
const tablesShift = 1

// setupSimTables builds the option sets behind the paper's per-vertex
// tables (Fig. 1, Table III), its ECS table (Table V), the serve
// simulate job, and a push traversal.
func setupSimTables(cfg config, tr *tracer) (instance, error) {
	return newSimWorkload(cfg, tablesShift, tr, false, func(in input) []simCase {
		g := in.g
		tlb := cachesim.ScaledTLB(trace.NewLayout(g).FootprintBytes(), 0.10)
		return []simCase{
			{label: "pervertex", opts: core.SimOptions{PerVertex: true}},
			{label: "snapshot", opts: core.SimOptions{SnapshotEvery: int(trace.CountAccesses(g) / 200)}},
			{label: "threads4-tlb", opts: core.SimOptions{Threads: 4, TLB: &tlb}},
			{label: "threads8-push", opts: core.SimOptions{Threads: 8, Direction: trace.Push}},
		}
	}), nil
}

func newSimWorkload(cfg config, shift int, tr *tracer, speedup bool, cases func(input) []simCase) *simWorkload {
	w := &simWorkload{speedup: speedup}
	for _, in := range buildAll(standard, cfg.shift+shift, cfg.seed, tr) {
		for _, c := range cases(in) {
			c.in = in
			w.cases = append(w.cases, c)
		}
	}
	return w
}

func (w *simWorkload) ops() []op {
	ops := make([]op, len(w.cases))
	for i, c := range w.cases {
		ops[i] = op{
			key:   c.key(),
			edges: c.in.g.NumEdges(),
			run: func(tr *tracer, root int) any {
				var r core.SimResult
				tr.call("core.SimulateSpMV", root, func() { r = core.SimulateSpMV(c.in.g, c.opts) })
				return r
			},
			check: checkSim,
		}
	}
	return ops
}

func checkSim(out any) (any, error) {
	r := out.(core.SimResult)
	if r.Canceled {
		return r, fmt.Errorf("simulation canceled")
	}
	return r, nil
}

func (w *simWorkload) timed(b budget, tr *tracer, chk *checker) (*phase, error) {
	return runOps(w.ops(), b, tr, chk), nil
}

// verify compares every case with the scalar reference simulator.
func (w *simWorkload) verify(chk *checker) {
	refs := make([]core.SimResult, len(w.cases))
	parallel(len(w.cases), func(i int) {
		c := w.cases[i]
		refs[i] = core.SimulateSpMVReference(c.in.g, c.opts)
	})
	for i, c := range w.cases {
		chk.verify(c.key(), refs[i])
	}
}

func (w *simWorkload) layers(m map[string]float64, rd *runData, chk *checker) {
	m["gen.build_s"] = median(rd.setups)
	var probes []simProbe
	for _, c := range w.cases {
		first, _ := chk.first[c.key()].(core.SimResult)
		p := probeSim(c.in.g, c.opts, w.speedup)
		if err := p.consistent(first); err != nil {
			chk.fail(c.key(), 1, "%s: %v", c.key(), err)
		}
		p.res = first
		probes = append(probes, p)
	}
	fillSimLayers(m, probes)
}

func (w *simWorkload) close() {}

// probeReps is how many rounds the layer-alone passes run; each keeps its
// best time. Two keep a traced sim-tables run, the longest, under 30 s.
const probeReps = 2

// simProbe is one simulate case with each layer timed alone over the
// case's own input.
type simProbe struct {
	opts core.SimOptions
	res  core.SimResult
	// fused is the case itself; def is the case with PerVertex and
	// SnapshotEvery off, the base of their extras.
	fused, def time.Duration
	// cols and recs time the trace generator into a discard sink in its
	// columnar and Access-record forms; cache and tlb time AccessBatch
	// over the captured stream.
	cols, recs, cache, tlb time.Duration
	// serial and multi are the default-option case at Workers=1 and
	// Workers=NumCPU (with speedup).
	serial, multi time.Duration
	// cacheStats and tlbStats are what the layers produced alone.
	cacheStats, tlbStats cachesim.Stats
}

// probeSim runs the layer-alone passes of one case. The stream is
// captured from the path the fused simulation takes: columns for one
// thread without per-vertex attribution, Access records otherwise. The
// fused case and its layers run in interleaved rounds, so all of them see
// the same host phases, and each keeps its best time.
func probeSim(g *graph.Graph, opts core.SimOptions, speedup bool) simProbe {
	p := simProbe{opts: opts}
	layout := trace.NewLayout(g)
	dir := opts.Direction
	threads := max(opts.Threads, 1)

	n := trace.CountAccesses(g)
	addrs := make([]uint64, 0, n)
	writes := make([]bool, 0, n)
	if threads == 1 && !opts.PerVertex {
		trace.RunColumns(g, layout, dir, 0, func(a []uint64, w []bool, _ int) bool {
			addrs = append(addrs, a...)
			writes = append(writes, w...)
			return true
		})
	} else {
		runRecords(g, layout, dir, threads, opts.Interval, func(block []trace.Access) bool {
			for _, a := range block {
				addrs = append(addrs, a.Addr)
				writes = append(writes, a.Write)
			}
			return true
		})
	}
	cfg := opts.Cache
	if cfg == (cachesim.Config{}) {
		cfg = cachesim.ScaledL3(g.NumVertices(), cachesim.DefaultVertexCacheFraction)
	}
	tlbCfg := cachesim.ScaledTLB(layout.FootprintBytes(), 0.10)
	if opts.TLB != nil {
		tlbCfg = *opts.TLB
	}

	type call struct {
		d *time.Duration
		f func()
	}
	calls := []call{
		{&p.fused, func() { core.SimulateSpMV(g, opts) }},
		{&p.cols, func() { trace.RunColumns(g, layout, dir, 0, func([]uint64, []bool, int) bool { return true }) }},
		{&p.recs, func() { runRecords(g, layout, dir, threads, opts.Interval, func([]trace.Access) bool { return true }) }},
		{&p.cache, func() {
			c := cachesim.New(cfg)
			forBlocks(len(addrs), func(i, j int) { c.AccessBatch(addrs[i:j], writes[i:j], nil) })
			p.cacheStats = c.Stats()
		}},
		{&p.tlb, func() {
			t := cachesim.NewTLB(tlbCfg)
			forBlocks(len(addrs), func(i, j int) { t.AccessBatch(addrs[i:j], nil) })
			p.tlbStats = t.Stats()
		}},
	}
	if opts.PerVertex || opts.SnapshotEvery > 0 {
		def := opts
		def.PerVertex, def.SnapshotEvery = false, 0
		calls = append(calls, call{&p.def, func() { core.SimulateSpMV(g, def) }})
	}
	if speedup && opts.Threads <= 1 && opts.TLB == nil && !opts.PerVertex && opts.SnapshotEvery == 0 {
		serial, multi := opts, opts
		serial.Workers, multi.Workers = 1, runtime.NumCPU()
		calls = append(calls,
			call{&p.serial, func() { core.SimulateSpMV(g, serial) }},
			call{&p.multi, func() { core.SimulateSpMV(g, multi) }})
	}
	for r := 0; r < probeReps; r++ {
		for _, c := range calls {
			start := time.Now()
			c.f()
			if d := time.Since(start); r == 0 || d < *c.d {
				*c.d = d
			}
		}
	}
	return p
}

// consistent checks that the layers run alone reproduced the fused
// simulation's counters.
func (p simProbe) consistent(fused core.SimResult) error {
	if p.cacheStats != fused.Cache {
		return fmt.Errorf("cache run alone gives %+v, fused %+v", p.cacheStats, fused.Cache)
	}
	if p.opts.TLB != nil && p.tlbStats != fused.TLB {
		return fmt.Errorf("TLB run alone gives %+v, fused %+v", p.tlbStats, fused.TLB)
	}
	return nil
}

// runRecords is the Access-record generator the fused path uses for the
// given thread count.
func runRecords(g *graph.Graph, l trace.Layout, dir trace.Direction, threads, interval int, sink trace.BatchSink) {
	if threads == 1 {
		trace.RunBatched(g, l, dir, 0, sink)
		return
	}
	if interval < 1 {
		interval = 1024 // core's default interleaving interval
	}
	trace.RunParallelBatched(g, l, dir, threads, interval, 0, sink)
}

// forBlocks calls f over [0, n) in trace.DefaultBatchSize blocks, the
// granularity the fused simulation feeds the cache with.
func forBlocks(n int, f func(i, j int)) {
	for i := 0; i < n; i += trace.DefaultBatchSize {
		f(i, min(i+trace.DefaultBatchSize, n))
	}
}

// fillSimLayers folds the probes of one pass's simulate cases into the
// trace, cachesim and core metrics.
func fillSimLayers(m map[string]float64, probes []simProbe) {
	var acc uint64
	var cols, recs, cache, tlb, fused, pvExtra, snapExtra, serial, multi time.Duration
	var layerSum []time.Duration
	var ecs float64
	var snaps int
	for _, p := range probes {
		acc += p.res.Cache.Accesses
		cols += p.cols
		recs += p.recs
		cache += p.cache
		tlb += p.tlb
		fused += p.fused
		serial += p.serial
		multi += p.multi
		m["cachesim.accesses"] += float64(p.res.Cache.Accesses)
		m["cachesim.misses"] += float64(p.res.Cache.Misses)
		m["cachesim.writebacks"] += float64(p.res.Cache.Writebacks)
		m["cachesim.tlb_misses"] += float64(p.res.TLB.Misses)

		// The layers of this case's fused path: its trace form, the cache,
		// the TLB when it has one, and the option extras. A one-thread
		// PerVertex case's switch to Access records is part of its extra.
		gen := p.cols
		if p.opts.Threads > 1 {
			gen = p.recs
		}
		layerSum = append(layerSum, gen, p.cache)
		if p.opts.TLB != nil {
			layerSum = append(layerSum, p.tlb)
		}
		if p.opts.PerVertex {
			pvExtra += p.fused - p.def
			layerSum = append(layerSum, p.fused-p.def)
		}
		if p.opts.SnapshotEvery > 0 {
			snapExtra += p.fused - p.def
			layerSum = append(layerSum, p.fused-p.def)
			ecs += p.res.ECS
			snaps++
		}
	}
	if acc == 0 {
		return
	}
	perAccess := func(d time.Duration) float64 { return float64(d) / float64(acc) }
	m["trace.ns_per_access"] = perAccess(cols)
	m["trace.records_ns_per_access"] = perAccess(recs)
	m["cachesim.cache_ns_per_access"] = perAccess(cache)
	m["cachesim.tlb_ns_per_access"] = perAccess(tlb)
	m["core.simulate_s"] = fused.Seconds()
	m["core.maccess_per_s"] = float64(acc) / fused.Seconds() / 1e6
	m["core.pervertex_extra_s"] = pvExtra.Seconds()
	m["core.snapshot_extra_s"] = snapExtra.Seconds()
	m["core.layer_sum_ratio"] = layerSumRatio(layerSum, fused)
	if multi > 0 {
		m["core.multicore_speedup"] = float64(serial) / float64(multi)
	}
	if snaps > 0 {
		m["core.ecs_pct"] = ecs / float64(snaps)
	}
}
