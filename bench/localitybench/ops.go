package main

import (
	"runtime"
	"sync"
	"time"
)

// op is one unit of timed work in a sequential workload.
type op struct {
	key   string // names the op's input and configuration
	edges uint64 // edges of the op's input graph
	// run does the op's work, with a span around each public call under
	// root, and returns its output.
	run func(tr *tracer, root int) any
	// check validates an output, untimed, and returns what must be equal
	// on every pass.
	check func(out any) (any, error)
}

// runOps runs ops in whole passes, one op at a time, timing each; a pass
// is a window, and its span the sum of its ops' times. With b.passes 0 it
// stops after the pass during which b.d has passed, once b.minOps ops and
// b.minWindows passes ran; otherwise it stops once it has run at least
// b.passes passes.
func runOps(ops []op, b budget, tr *tracer, chk *checker) *phase {
	ph := &phase{}
	start := time.Now()
	for {
		var span time.Duration
		for _, o := range ops {
			root := tr.begin(o.key, 0)
			t0 := time.Now()
			out := o.run(tr, root)
			dt := time.Since(t0)
			tr.end(root)
			span += dt
			ph.samples = append(ph.samples, sample{key: o.key, dur: dt, edges: o.edges, win: len(ph.span)})
			cmp, err := o.check(out)
			chk.observe(o.key, cmp, err)
		}
		ph.endWindow(span, b.ref)
		ph.passes++
		if b.passes > 0 {
			if ph.passes >= b.passes {
				break
			}
		} else if time.Since(start) >= b.d && len(ph.samples) >= b.minOps && len(ph.span) >= b.minWindows {
			break
		}
	}
	return ph
}

// parallel calls f(0..n-1) on runtime.NumCPU() goroutines and waits.
func parallel(n int, f func(i int)) {
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
