package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"runtime"
	"slices"
	"time"

	"graphlocality/internal/core"
	"graphlocality/internal/graph"
	"graphlocality/internal/reorder"
	"graphlocality/internal/spmv"
)

// lightOrderings run the whole pipeline; identity is the base the SpMV
// saving of the others is measured against.
var lightOrderings = []string{"identity", "dbg", "hubsort", "boba"}

// heavyOrderings run reorder and relabel only: their reorder cost is
// what they add to the pipeline.
var heavyOrderings = []string{"sb", "ro", "go"}

// lightShift and heavyShift shrink the graphs of the light (8-fold) and
// heavy (16-fold) orderings, so that a pass takes about a second and a
// run holds well over minWindows passes: a light pass over the full
// graphs takes about 3 s, and GOrder on the full TwtrS alone about 6 s
// (on FrndS 11.5 s, which is why the heavy orderings leave FrndS out).
const (
	lightShift = 3
	heavyShift = 4
)

// spmvIters is how many SpMV iterations a light op runs.
const spmvIters = 10

// reorderCase is one op's input and ordering.
type reorderCase struct {
	in   input
	name string // registry name of the ordering
	alg  reorder.Algorithm
	// full adds the simulate and SpMV steps after relabel.
	full bool
}

func (c reorderCase) key() string { return c.in.name + "/" + c.name }

// reorderWorkload is the pipeline workload.
type reorderWorkload struct {
	cases []reorderCase
	// perms keeps each case's first permutation for the checks that run
	// after the timed phase.
	perms map[string]graph.Permutation
	// ones and out are each light input's SpMV source (all ones, so the
	// result is the in-degree vector) and destination.
	ones, out map[string][]float64
}

func setupPipeline(cfg config, tr *tracer) (instance, error) {
	var heavySets []dataset
	for _, d := range standard {
		if d.name != "FrndS" {
			heavySets = append(heavySets, d)
		}
	}
	w := &reorderWorkload{perms: map[string]graph.Permutation{},
		ones: map[string][]float64{}, out: map[string][]float64{}}
	if err := w.add(buildAll(standard, cfg.shift+lightShift, cfg.seed, tr), lightOrderings, true); err != nil {
		return nil, err
	}
	if err := w.add(buildAll(heavySets, cfg.shift+heavyShift, cfg.seed, tr), heavyOrderings, false); err != nil {
		return nil, err
	}
	return w, nil
}

// add adds a case for every input and ordering.
func (w *reorderWorkload) add(ins []input, orderings []string, full bool) error {
	for _, in := range ins {
		for _, name := range orderings {
			alg, err := reorder.New(name)
			if err != nil {
				return err
			}
			w.cases = append(w.cases, reorderCase{in: in, name: name, alg: alg, full: full})
		}
		if full {
			n := in.g.NumVertices()
			w.ones[in.name] = make([]float64, n)
			for i := range w.ones[in.name] {
				w.ones[in.name][i] = 1
			}
			w.out[in.name] = make([]float64, n)
		}
	}
	return nil
}

// reorderOut is one op's output; pipeCmp is what must repeat every pass.
type reorderOut struct {
	perm graph.Permutation
	h    *graph.Graph
	sim  core.SimResult
	dst  []float64
}

type pipeCmp struct {
	PermCRC uint32
	Sim     core.SimResult
}

func (w *reorderWorkload) ops() []op {
	ops := make([]op, len(w.cases))
	for i, c := range w.cases {
		g := c.in.g
		o := op{key: c.key(), edges: g.NumEdges(), check: func(out any) (any, error) { return w.check(c, out.(reorderOut)) }}
		if c.full {
			src, dst := w.ones[c.in.name], w.out[c.in.name]
			o.run = func(tr *tracer, root int) any {
				var r reorderOut
				tr.call("reorder.Perm", root, func() { r.perm = reorder.Perm(c.alg, g) })
				tr.call("graph.Relabel", root, func() { r.h = g.Relabel(r.perm) })
				tr.call("core.SimulateSpMV", root, func() { r.sim = core.SimulateSpMV(r.h, core.SimOptions{}) })
				var e *spmv.Engine
				tr.call("spmv.New", root, func() { e = spmv.New(r.h, 1) })
				for it := 0; it < spmvIters; it++ {
					tr.call("spmv.Engine.Pull", root, func() { e.Pull(src, dst) })
				}
				r.dst = dst
				return r
			}
		} else {
			o.run = func(tr *tracer, root int) any {
				var r reorderOut
				tr.call("reorder.Run", root, func() { r.perm = reorder.Run(c.alg, g).Perm })
				tr.call("graph.Relabel", root, func() { r.h = g.Relabel(r.perm) })
				return r
			}
		}
		ops[i] = o
	}
	return ops
}

// check validates one op's permutation, relabeled graph and SpMV result.
func (w *reorderWorkload) check(c reorderCase, r reorderOut) (any, error) {
	if err := r.perm.Validate(); err != nil {
		return nil, fmt.Errorf("permutation: %w", err)
	}
	if _, ok := w.perms[c.key()]; !ok {
		w.perms[c.key()] = r.perm
	}
	if !c.full {
		if err := r.h.Validate(); err != nil {
			return nil, fmt.Errorf("relabeled graph: %w", err)
		}
		if r.h.NumEdges() != c.in.g.NumEdges() {
			return nil, fmt.Errorf("relabel kept %d of %d edges", r.h.NumEdges(), c.in.g.NumEdges())
		}
		return crcPerm(r.perm), nil
	}
	if r.sim.Canceled {
		return nil, fmt.Errorf("simulation canceled")
	}
	for v, x := range r.dst {
		if want := float64(r.h.InDegree(uint32(v))); x != want {
			return nil, fmt.Errorf("SpMV dst[%d] = %v, want the in-degree %v", v, x, want)
		}
	}
	return pipeCmp{PermCRC: crcPerm(r.perm), Sim: r.sim}, nil
}

func (w *reorderWorkload) timed(b budget, tr *tracer, chk *checker) (*phase, error) {
	return runOps(w.ops(), b, tr, chk), nil
}

// verify re-runs the light orderings' simulations of the first pass's
// relabeled graphs on the scalar reference simulator.
func (w *reorderWorkload) verify(chk *checker) {
	refs := make([]pipeCmp, len(w.cases))
	parallel(len(w.cases), func(i int) {
		c := w.cases[i]
		if perm, ok := w.perms[c.key()]; ok && c.full {
			refs[i] = pipeCmp{PermCRC: crcPerm(perm), Sim: core.SimulateSpMVReference(c.in.g.Relabel(perm), core.SimOptions{})}
		}
	})
	for i, c := range w.cases {
		if c.full {
			chk.verify(c.key(), refs[i])
		}
	}
}

func (w *reorderWorkload) layers(m map[string]float64, rd *runData, chk *checker) {
	m["gen.build_s"] = median(rd.setups)
	m["graph.relabel_s"] = selfTimes(rd.spans)["graph.Relabel"].Seconds() / rd.traced.passes
	w.tableII(m)

	var probes []simProbe
	var relabelAlloc uint64
	for _, c := range w.cases {
		perm := w.perms[c.key()]
		var h *graph.Graph
		relabelAlloc += allocated(func() { h = c.in.g.Relabel(perm) })
		if !c.full {
			continue
		}
		first, _ := chk.first[c.key()].(pipeCmp)
		p := probeSim(h, core.SimOptions{}, false)
		if err := p.consistent(first.Sim); err != nil {
			chk.fail(c.key(), 1, "%s: %v", c.key(), err)
		}
		p.res = first.Sim
		probes = append(probes, p)
	}
	m["graph.relabel_alloc_mb"] = float64(relabelAlloc) / (1 << 20)
	fillSimLayers(m, probes)

	// The SpMV time per iteration of each ordering over all inputs, and how
	// many iterations repay an ordering's reorder and relabel time, each
	// call at its median time in the traced phase.
	pulls := durationsByRoot(rd.spans, "spmv.Engine.Pull")
	perms := durationsByRoot(rd.spans, "reorder.Perm")
	relabels := durationsByRoot(rd.spans, "graph.Relabel")
	iter := map[string]time.Duration{}
	cost := map[string]time.Duration{}
	for _, c := range w.cases {
		iter[c.name] += medianDuration(pulls[c.key()])
		cost[c.name] += medianDuration(perms[c.key()]) + medianDuration(relabels[c.key()])
	}
	for _, name := range lightOrderings {
		m["spmv.iter_ms."+name] = float64(iter[name]) / 1e6
		if name == "identity" {
			continue
		}
		// -1: the ordering saves nothing per iteration, so it never pays.
		breakeven := -1.0
		if saving := iter["identity"] - iter[name]; saving > 0 {
			breakeven = float64(cost[name]) / float64(saving)
		}
		m["spmv.breakeven_iters."+name] = breakeven
	}
}

// tableII fills reorder.<ordering>_s and _alloc_mb, the paper's Table II
// costs: reorder.Run of each ordering on every input, repeated probeReps
// times, the best time and the median allocation summed over the inputs.
// It runs alone, one call at a time, so neither the time nor the
// process-wide allocation count picks up other work.
func (w *reorderWorkload) tableII(m map[string]float64) {
	for _, c := range w.cases {
		if c.name == "identity" {
			continue
		}
		var ds []time.Duration
		var allocs []float64
		for i := 0; i < probeReps; i++ {
			r := reorder.Run(c.alg, c.in.g)
			ds = append(ds, r.Elapsed)
			allocs = append(allocs, float64(r.AllocBytes))
		}
		m["reorder."+c.name+"_s"] += slices.Min(ds).Seconds()
		m["reorder."+c.name+"_alloc_mb"] += median(allocs) / (1 << 20)
	}
}

func (w *reorderWorkload) close() {}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// crcPerm fingerprints a permutation (CRC32C of its little-endian bytes).
func crcPerm(perm graph.Permutation) uint32 {
	buf := make([]byte, 4*len(perm))
	for i, v := range perm {
		binary.LittleEndian.PutUint32(buf[4*i:], v)
	}
	return crc32.Checksum(buf, castagnoli)
}
