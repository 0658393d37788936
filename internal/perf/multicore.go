package perf

import (
	"fmt"
	"reflect"
	"runtime"

	"graphlocality/internal/core"
	"graphlocality/internal/reorder"
	"graphlocality/internal/trace"
)

// DefaultWorkerCounts returns the worker-count ladder for a multicore
// bench run on this machine: 1, then doubling up to NumCPU. It always
// includes 2 even on a single-core machine — GOMAXPROCS can be raised past
// the core count, so the parallel boba pass still runs (and is still
// bit-exactness-checked); only the speedups become ~1x there, which the
// report records honestly via its GoMaxProcs field.
func DefaultWorkerCounts() []int {
	counts := []int{1, 2}
	for w := 4; w <= runtime.NumCPU(); w *= 2 {
		counts = append(counts, w)
	}
	return counts
}

// Multicore appends two sweeps. The boba parallel-ordering sweep: per
// workload and worker count w, reorder.Boba{Workers: w} is timed under
// GOMAXPROCS(w) and DeepEqual-checked against the serial pass. The
// simulate sweep: per workload, core.SimulateSpMV under GOMAXPROCS(w)
// with the default options ("multicore/simulate/...") and with the
// per-vertex attribution and a TLB beside four emulated threads
// ("multicore/simulate-pv-tlb/..."), each DeepEqual-checked against
// SimulateSpMVReference. SimulateSpMV has no worker setting, so there w is
// the number of Ps its pipeline's stages can run on. Every timing row
// doubles as a bit-exactness proof, so a scaling number can never be
// bought with a wrong result. Speedup entries record t(w=1)/t(w) per row,
// the numbers the bench diff gate guards against scaling erosion.
func Multicore(r *Report, workloads []Workload, workerCounts []int, opts Options) error {
	if len(workerCounts) == 0 {
		workerCounts = DefaultWorkerCounts()
	}
	if workerCounts[0] != 1 {
		workerCounts = append([]int{1}, workerCounts...)
	}
	rep := opts.repeats()
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	// sweep times f under GOMAXPROCS(w) for every worker count, checking
	// each result with same, and records the rows "multicore/<what>/w=N".
	sweep := func(what string, f func(w int) any, same func(any) bool) error {
		var base float64
		for _, wc := range workerCounts {
			runtime.GOMAXPROCS(wc)
			var out any
			d := timeIt(rep, func() { out = f(wc) })
			if !same(out) {
				return fmt.Errorf("perf: %s at w=%d diverges from its reference result", what, wc)
			}
			name := fmt.Sprintf("multicore/%s/w=%d", what, wc)
			ns := float64(d.Nanoseconds())
			r.Add(name, rep, ns)
			opts.progress(name, ns)
			if wc == 1 {
				base = ns
			} else if ns > 0 {
				r.AddSpeedup(name, base/ns)
			}
		}
		runtime.GOMAXPROCS(prev)
		return nil
	}

	for _, w := range workloads {
		serial := reorder.Perm(reorder.Boba{Workers: 1}, w.Graph)
		err := sweep("boba/"+w.Name, func(wc int) any {
			return reorder.Perm(reorder.Boba{Workers: wc}, w.Graph)
		}, func(out any) bool { return reflect.DeepEqual(serial, out) })
		if err != nil {
			return err
		}
	}
	for _, w := range workloads {
		g := w.Graph
		pvTLB := core.PaperOptions(g, trace.Pull)
		pvTLB.PerVertex = true
		for _, set := range []struct {
			what string
			opts core.SimOptions
		}{
			{"simulate/" + w.Name, core.SimOptions{}},
			{"simulate-pv-tlb/" + w.Name, pvTLB},
		} {
			ref := core.SimulateSpMVReference(g, set.opts)
			err := sweep(set.what, func(int) any { return core.SimulateSpMV(g, set.opts) },
				func(out any) bool { return reflect.DeepEqual(ref, out) })
			if err != nil {
				return err
			}
		}
	}
	return nil
}
