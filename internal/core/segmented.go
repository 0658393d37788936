package core

import (
	"sync"

	"graphlocality/internal/cachesim"
	"graphlocality/internal/graph"
	"graphlocality/internal/trace"
)

// SegmentedResult is the outcome of the paper's parallelized simulation.
type SegmentedResult struct {
	// Misses is the summed miss count over all segments.
	Misses uint64
	// Accesses is the total access count (exact).
	Accesses uint64
	// Segments is the number of independently simulated stream segments:
	// at most the number requested, fewer when the stream is too short to
	// give every requested segment an access.
	Segments int
}

// MissRate returns Misses/Accesses.
func (r SegmentedResult) MissRate() float64 {
	if r.Accesses == 0 {
		return 0
	}
	return float64(r.Misses) / float64(r.Accesses)
}

// SimulateSpMVSegmented implements the paper's phase-2 parallelization
// (§V-B): "dividing execution duration between threads where for each
// interval a thread simulates all logged accesses". The interleaved
// access stream is cut into `segments` equal time slices, each simulated
// concurrently against its own cache whose state starts cold — the
// approximation that gives the paper its reported 15% absolute error
// while keeping the *relative* error between reorderings at 1.4%, which
// is what the analysis depends on. Use SimulateSpMV for the exact
// (sequential) numbers.
//
// g is any Topology (in-RAM or segment-backed). Honoured options:
// Direction (default Pull, as the paper simulates), Threads and Interval
// (the emulated interleaving), Cache, and Workers, which bounds the
// number of segment replays running concurrently (0 = one goroutine per
// segment). The replayed stream is materialized once, so the result is
// identical for every Workers value.
func SimulateSpMVSegmented(g graph.Topology, opts SimOptions, segments int) SegmentedResult {
	opts = opts.normalize(g)
	segments = max(segments, 1)

	// Materialize the interleaved stream once (phase 1 + interleaving) as
	// parallel address/write arrays — the only access fields the segment
	// replay needs.
	total := int(trace.CountAccesses(g))
	addrs := make([]uint64, 0, total)
	writes := make([]bool, 0, total)
	trace.Generate(g, trace.NewLayout(g), opts.stream(g), 0, false, func(b *trace.Block) bool {
		addrs = append(addrs, b.Addrs...)
		writes = append(writes, b.Writes...)
		return true
	})

	// Cut the stream into slices of `per` accesses. Rounding `per` up can
	// leave fewer than `segments` slices; Segments reports the slices
	// actually simulated.
	per := max((len(addrs)+segments-1)/segments, 1)
	segments = (len(addrs) + per - 1) / per
	res := SegmentedResult{Accesses: uint64(len(addrs)), Segments: segments}
	misses := make([]uint64, segments)
	var sem chan struct{}
	if opts.Workers > 0 {
		sem = make(chan struct{}, opts.Workers)
	}
	var wg sync.WaitGroup
	for s := 0; s < segments; s++ {
		lo, hi := s*per, min((s+1)*per, len(addrs))
		wg.Add(1)
		go func(s, lo, hi int) {
			defer wg.Done()
			if sem != nil {
				sem <- struct{}{}
				defer func() { <-sem }()
			}
			c := cachesim.New(opts.Cache)
			c.AccessBatch(addrs[lo:hi], writes[lo:hi], nil)
			misses[s] = c.Stats().Misses
		}(s, lo, hi)
	}
	wg.Wait()
	for _, m := range misses {
		res.Misses += m
	}
	return res
}
