package expt

import (
	"runtime"
	"sync"
	"sync/atomic"

	"graphlocality/internal/reorder"
)

// The parallel experiment scheduler. Experiment grids are embarrassingly
// parallel across (dataset, algorithm) cells — each cell reorders, relabels
// and simulates independently — but their *outputs* must stay byte-stable:
// tables and CSVs are ordered by grid position, never by completion order.
// mapIndexed realizes that split: workers compute cells in whatever order
// the machine dictates, while the calling goroutine is the only writer
// assembling results into index order.

// mapIndexed runs fn(i) for i in [0, n) with at most `parallel` concurrent
// goroutines and returns the results in index order. parallel <= 1 runs
// everything serially, in order, on the calling goroutine — bit-for-bit
// the pre-scheduler behavior. With parallel > 1, workers pull indices from
// a shared counter and send results over a channel that the calling
// goroutine alone drains into the index-ordered slice: a single writer, so
// result assembly is deterministic regardless of completion order.
func mapIndexed[T any](parallel, n int, fn func(int) T) []T {
	out := make([]T, n)
	if n == 0 {
		return out
	}
	if parallel > n {
		parallel = n
	}
	// Clamp before the serial check: a one-cell grid under a parallel
	// session would otherwise still pay for a worker goroutine, a results
	// channel and a closer just to compute fn(0).
	if parallel <= 1 {
		for i := 0; i < n; i++ {
			out[i] = fn(i)
		}
		return out
	}
	type indexed struct {
		i int
		v T
	}
	results := make(chan indexed, parallel)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				results <- indexed{i: i, v: fn(i)}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()
	for r := range results {
		out[r.i] = r.v
	}
	return out
}

// mapCells is mapIndexed with the session's worker budget and scheduler
// observability: every scheduled work item bumps the "expt.cells" counter,
// a deterministic fact — the same grid is enumerated whatever the
// parallelism, so serial and parallel manifests agree on it.
func mapCells[T any](s *Session, n int, fn func(int) T) []T {
	s.Obs.Counter("expt.cells").Add(uint64(n))
	return mapIndexed(s.parallelism(), n, fn)
}

// gridCell is one (dataset, algorithm) cell of an experiment grid, carrying
// its grid position so per-cell results reassemble in row-major order.
type gridCell struct {
	ds     Dataset
	alg    reorder.Algorithm
	di, ai int
}

// grid enumerates the row-major (dataset × algorithm) cells.
func grid(datasets []Dataset, algs []reorder.Algorithm) []gridCell {
	cells := make([]gridCell, 0, len(datasets)*len(algs))
	for di, ds := range datasets {
		for ai, alg := range algs {
			cells = append(cells, gridCell{ds: ds, alg: alg, di: di, ai: ai})
		}
	}
	return cells
}

// parallelism returns the scheduler's effective worker budget (at least
// 1), re-derived from GOMAXPROCS on every call — each grid sees the
// machine as it is *now*, so a session constructed under GOMAXPROCS=1
// fans out once the runtime is widened, and a widened session degrades
// back to serial when it shrinks. The budget is capped at GOMAXPROCS: the
// cells are CPU-bound, so goroutines beyond the core count only
// interleave on the existing Ps and the session pays the scheduler's
// two-phase overhead (workers, channel, single-writer drain) for no added
// concurrency. The clamp lives here rather than in mapIndexed so tests
// can still drive mapIndexed's parallel machinery directly.
func (s *Session) parallelism() int {
	if s.Parallel < 1 {
		return 1
	}
	p := s.Parallel
	if maxp := runtime.GOMAXPROCS(0); p > maxp {
		p = maxp
	}
	return p
}
