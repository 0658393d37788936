package serve

import (
	"cmp"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"time"

	"graphlocality/internal/core"
	"graphlocality/internal/gen"
	"graphlocality/internal/graph"
	"graphlocality/internal/reorder"
	"graphlocality/internal/runctl"
	"graphlocality/internal/store"
	"graphlocality/internal/trace"
)

// Failpoint names instrumented in the job execution path. The chaos
// suite (and LOCALITYLAB_FAILPOINTS) arms these against a live server.
const (
	// PointJobRun fires at the start of every job's compute stage:
	// panic/hang/error here model a faulty reordering algorithm.
	PointJobRun = "serve.job.run"
	// PointStoreGet fires before every GetOrCompute call: error/transient
	// here model a sick cache tier (dead mount, lock contention) and
	// drive the retry + circuit-breaker degradation ladder.
	PointStoreGet = "serve.store.get"
)

// crcPerm fingerprints a permutation (little-endian CRC32C).
func crcPerm(perm graph.Permutation) uint32 {
	buf := make([]byte, 4*len(perm))
	for i, v := range perm {
		binary.LittleEndian.PutUint32(buf[4*i:], v)
	}
	return crc32.Checksum(buf, store.Castagnoli)
}

// computeError wraps a job's own failure inside GetOrCompute so the
// caller can tell "the job is broken" (typed job failure, don't punish
// the store) from "the store is broken" (count against the breaker,
// degrade to direct compute).
type computeError struct{ err error }

func (e *computeError) Error() string { return e.err.Error() }
func (e *computeError) Unwrap() error { return e.err }

// compute runs the job's actual work under ctx. Cancellation is polled
// inside every reorder/simulate loop (runctl.Poller), so a dead context
// surfaces within one poll interval, never at the end of the job.
func compute(ctx context.Context, req JobRequest) (JobResult, error) {
	// The input graph is generated from the validated (so size-bounded)
	// spec; generation is deterministic, which makes results cacheable.
	spec := req.Graph
	g, err := gen.Generate(spec.Kind, spec.Scale, spec.EdgeFactor, spec.Seed)
	if err != nil {
		return JobResult{}, badRequestf("%v", err)
	}
	res := JobResult{Vertices: g.NumVertices(), Edges: g.NumEdges()}
	if req.Kind == KindReorder || req.Alg != "" {
		// Reorder jobs end here; simulate jobs go on over the relabeled
		// graph. Metrics jobs never carry an alg (validated).
		alg, err := reorder.New(req.Alg)
		if err != nil {
			return res, badRequestf("%v", err)
		}
		r, err := reorder.RunContext(ctx, alg, g)
		if err != nil {
			return res, err
		}
		res.Algorithm = r.Algorithm
		if req.Kind == KindReorder {
			res.PermCRC32C = crcPerm(r.Perm)
			res.ReorderMS = float64(r.Elapsed.Microseconds()) / 1000
			return res, nil
		}
		g = g.Relabel(r.Perm)
	}
	switch req.Kind {
	case KindSimulate:
		// An empty direction means pull on the wire.
		dir, err := trace.ParseDirection(cmp.Or(req.Direction, "pull"))
		if err != nil {
			return res, badRequestf("%v", err)
		}
		opts := core.PaperOptions(g, dir)
		opts.Ctx = ctx
		sim := core.SimulateSpMV(g, opts)
		if sim.Canceled {
			return res, runctl.ErrCanceled
		}
		res.Accesses = sim.Cache.Accesses
		res.Misses = sim.Cache.Misses
		res.MissRate = sim.Cache.MissRate()
		res.Writebacks = sim.Cache.Writebacks
		res.TLBMisses = sim.TLB.Misses
	case KindMetrics:
		res.MeanAID = core.MeanAID(g)
		res.AverageGap = core.AverageGap(g)
		res.Reciprocity = core.Reciprocity(g)
	}
	return res, nil
}

// resultSection is the artifact section holding a cached job result.
const resultSection = "result"

func encodeResult(res JobResult) ([]store.Section, error) {
	data, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	return []store.Section{{Name: resultSection, Data: data}}, nil
}

func decodeResult(sections []store.Section) (JobResult, error) {
	var res JobResult
	data, ok := store.FindSection(sections, resultSection)
	if !ok {
		return res, fmt.Errorf("serve: cached result missing %q section", resultSection)
	}
	if err := json.Unmarshal(data, &res); err != nil {
		return res, fmt.Errorf("serve: cached result: %w", err)
	}
	return res, nil
}

// storeBackoff is the capped retry schedule for store infrastructure
// failures before a job degrades to direct compute.
var storeBackoff = []time.Duration{25 * time.Millisecond, 100 * time.Millisecond}

// runCached executes the job through the degradation ladder:
//
//	artifact store (GetOrCompute single-flight, verified reads)
//	  └─ capped-backoff retry on store infrastructure failure
//	       └─ circuit breaker open, or retries exhausted
//	            └─ direct compute (correct, just not deduplicated)
//
// Compute failures are the job's own and propagate immediately — they
// never count against the store's breaker and are never retried here
// (runctl already retried transients inside the stage).
func (s *Server) runCached(ctx context.Context, req JobRequest, run func() (JobResult, error)) (JobResult, bool, error) {
	if s.store == nil || req.NoCache {
		res, err := run()
		return res, false, err
	}
	if !s.breaker.Allow() {
		s.cDegraded.Inc()
		res, err := run()
		return res, false, err
	}

	var res JobResult
	check := func(sections []store.Section) error {
		r, err := decodeResult(sections)
		if err == nil {
			res = r
		}
		return err
	}
	computeFn := func() ([]store.Section, error) {
		r, err := run()
		if err != nil {
			return nil, &computeError{err: err}
		}
		res = r
		sections, err := encodeResult(r)
		if err != nil {
			return nil, &computeError{err: err}
		}
		return sections, nil
	}

	name := req.ArtifactKey()
	for attempt := 0; ; attempt++ {
		err := runctl.Fire(ctx, PointStoreGet)
		var got store.GetResult
		if err == nil {
			got, err = s.store.GetOrCompute(name, true, check, computeFn)
		}
		if err == nil {
			if got.WriteErr != nil {
				// The result is usable; only persistence failed. Count it
				// against the breaker — a store that cannot write is sick.
				s.breaker.Fail()
				s.cStoreErrors.Inc()
			} else {
				s.breaker.Success()
			}
			return res, got.Restored, nil
		}
		var ce *computeError
		if errors.As(err, &ce) {
			return res, false, ce.err
		}
		// Store infrastructure failure: retry with capped backoff, then
		// degrade to direct compute. Never fail the request over the cache.
		s.breaker.Fail()
		s.cStoreErrors.Inc()
		if attempt < len(storeBackoff) && runctl.IsTransient(err) && ctx.Err() == nil {
			if serr := sleepCtx(ctx, storeBackoff[attempt]); serr == nil {
				continue
			}
		}
		s.cDegraded.Inc()
		r, rerr := run()
		return r, false, rerr
	}
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
