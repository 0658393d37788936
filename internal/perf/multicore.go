package perf

import (
	"fmt"
	"reflect"
	"runtime"

	"graphlocality/internal/graph"
	"graphlocality/internal/reorder"
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

// Multicore appends the boba parallel-ordering sweep: per workload and
// worker count w, reorder.Boba{Workers: w} is timed under GOMAXPROCS(w)
// and DeepEqual-checked against the serial pass — every timing row
// doubles as a bit-exactness proof, so a scaling number can never be
// bought with a wrong permutation. Speedup entries record t(w=1)/t(w) per
// row ("multicore/boba/..."), the numbers the bench diff gate guards
// against scaling erosion.
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
