package perf

import (
	"fmt"
	"reflect"
	"runtime"

	"graphlocality/internal/core"
	"graphlocality/internal/graph"
	"graphlocality/internal/reorder"
)

// DefaultWorkerCounts returns the worker-count ladder for a multicore
// bench run on this machine: 1, then doubling up to NumCPU. It always
// includes 2 even on a single-core machine — GOMAXPROCS can be raised past
// the core count, so the parallel pipeline still runs (and is still
// bit-exactness-checked); only the speedups become ~1x there, which the
// report records honestly via its GoMaxProcs field.
func DefaultWorkerCounts() []int {
	counts := []int{1, 2}
	for w := 4; w <= runtime.NumCPU(); w *= 2 {
		counts = append(counts, w)
	}
	return counts
}

// Multicore appends the multicore-scaling pass: per workload and worker
// count w, SimulateSpMV with Workers=w is timed under GOMAXPROCS(w) and
// DeepEqual-checked against the scalar reference — every timing row
// doubles as a bit-exactness proof, so a scaling number can never be
// bought with a wrong result. A second sweep does the same for the boba
// parallel ordering against its serial pass. Speedup entries record
// t(w=1)/t(w) per row ("multicore/..."), the numbers the bench diff gate
// guards against scaling erosion.
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

	for _, w := range workloads {
		ref := core.SimulateSpMVReference(w.Graph, w.Opts)
		var base float64
		for _, wc := range workerCounts {
			runtime.GOMAXPROCS(wc)
			o := w.Opts
			o.Workers = wc
			var res core.SimResult
			d := timeIt(rep, func() { res = core.SimulateSpMV(w.Graph, o) })
			if !reflect.DeepEqual(ref, res) {
				return fmt.Errorf("perf: multicore SimulateSpMV (workers=%d) diverges from reference on %s", wc, w.Name)
			}
			name := fmt.Sprintf("multicore/simulate/%s/w=%d", w.Name, wc)
			ns := float64(d.Nanoseconds())
			r.Add(name, rep, ns)
			opts.progress(name, ns)
			if wc == 1 {
				base = ns
			} else if ns > 0 {
				r.AddSpeedup(name, base/ns)
			}
		}
	}

	for _, w := range workloads {
		runtime.GOMAXPROCS(prev)
		serial := reorder.Perm(reorder.Boba{Workers: 1}, w.Graph)
		var base float64
		for _, wc := range workerCounts {
			runtime.GOMAXPROCS(wc)
			var perm graph.Permutation
			d := timeIt(rep, func() { perm = reorder.Perm(reorder.Boba{Workers: wc}, w.Graph) })
			if !reflect.DeepEqual(serial, perm) {
				return fmt.Errorf("perf: boba workers=%d diverges from serial on %s", wc, w.Name)
			}
			name := fmt.Sprintf("multicore/boba/%s/w=%d", w.Name, wc)
			ns := float64(d.Nanoseconds())
			r.Add(name, rep, ns)
			opts.progress(name, ns)
			if wc == 1 {
				base = ns
			} else if ns > 0 {
				r.AddSpeedup(name, base/ns)
			}
		}
	}
	return nil
}
