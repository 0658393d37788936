package expt

import (
	"context"
	"errors"
	"fmt"
	"log"
	"runtime"
	"sync"
	"time"

	"graphlocality/internal/cachesim"
	"graphlocality/internal/core"
	"graphlocality/internal/graph"
	"graphlocality/internal/obs"
	"graphlocality/internal/reorder"
	"graphlocality/internal/runctl"
	"graphlocality/internal/spmv"
	"graphlocality/internal/store"
	"graphlocality/internal/trace"
	"graphlocality/internal/vfs"
)

// memo is a concurrency-safe cache with per-key once semantics: concurrent
// callers of Do with the same key compute the value exactly once and share
// it; callers of other keys proceed independently (no global lock held
// during computation).
type memo[T any] struct {
	mu sync.Mutex
	m  map[string]*memoEntry[T]
}

type memoEntry[T any] struct {
	once sync.Once
	val  T
}

func (c *memo[T]) entry(key string) *memoEntry[T] {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = make(map[string]*memoEntry[T])
	}
	e, ok := c.m[key]
	if !ok {
		e = &memoEntry[T]{}
		c.m[key] = e
	}
	return e
}

// Do returns the value for key, computing it with fn exactly once even
// under concurrent callers (latecomers block until it is ready).
func (c *memo[T]) Do(key string, fn func() T) T {
	return c.DoUnless(key, fn, func(T) bool { return false })
}

// DoUnless is Do, except that a value for which discard reports true is
// returned to the callers that waited for it but not kept: the next call
// for key computes it again.
func (c *memo[T]) DoUnless(key string, fn func() T, discard func(T) bool) T {
	e := c.entry(key)
	e.once.Do(func() { e.val = fn() })
	if discard(e.val) {
		c.mu.Lock()
		if c.m[key] == e {
			delete(c.m, key)
		}
		c.mu.Unlock()
	}
	return e.val
}

// Set seeds the value for key; a later Do returns it without computing.
// If the key was already computed the seed is a no-op.
func (c *memo[T]) Set(key string, val T) {
	e := c.entry(key)
	e.once.Do(func() { e.val = val })
}

// Session memoizes the expensive intermediate artifacts of an experiment
// run: generated graphs, reordering results, relabeled graphs and
// simulations. All tables and figures of one invocation share a Session so
// each reordering and each (dataset, spec, direction) simulation is
// computed exactly once. The session is safe for concurrent use: the
// parallel scheduler runs independent grid cells on worker goroutines, and
// per-key once-semantics guarantee that two cells needing the same
// reordering share one computation.
//
// Every reordering and simulation runs as a run-control stage: a panic or
// deadline overrun inside one RA is isolated into a *runctl.StageError,
// the affected rows fall back to the Initial ordering (marked degraded in
// table output), and the rest of the run proceeds. With CacheDir set,
// computed permutations are checkpointed to disk write-through; a Resume
// session reloads them instead of recomputing after a crash or SIGINT.
type Session struct {
	// Repeats for wall-clock timing of traversals.
	Repeats int
	// Parallel is the number of grid cells the experiment scheduler runs
	// concurrently (0 or 1 = serial, reproducing the pre-scheduler output
	// bit-for-bit). Wall-clock timings (TimeTraversal) always run serially
	// regardless, so parallelism never perturbs reported latencies.
	Parallel int

	// Ctrl executes the session's stages (cancellation, deadlines, panic
	// isolation, retries). Lazily created with default config when nil.
	// Set it before sharing the session across goroutines.
	Ctrl *runctl.Controller
	// CacheDir, when non-empty, is where computed permutations are
	// checkpointed (write-through, one file per dataset/algorithm pair).
	CacheDir string
	// Resume makes Reorder load checkpoints from CacheDir instead of
	// recomputing.
	Resume bool
	// FS routes the checkpoint store's disk operations (nil = the real
	// filesystem). Chaos tests inject a vfs.FaultFS here.
	FS vfs.FS
	// Obs receives the session's observability stream: deterministic
	// counters and span facts (cells scheduled, simulated accesses, bytes
	// touched) alongside timing measurements. Nil disables recording. Pass
	// the same recorder as runctl.Config.Metrics so stage spans also carry
	// wall-clock; the session only attaches events/bytes to those spans,
	// never wall, so nothing is double-timed.
	Obs *obs.Registry

	graphs    memo[*graph.Graph]
	reorders  memo[reorder.Result]
	relabeled memo[*graph.Graph]
	sims      memo[core.SimResult]

	stateMu  sync.Mutex
	degraded map[string]string // "ds/alg" -> reason the RA fell back to Initial
	restored map[string]bool   // "ds/alg" -> permutation came from a checkpoint

	storeOnce sync.Once
	stor      *store.Store // nil when CacheDir is unset or unusable
	warnOnce  sync.Once    // checkpoint write failures are logged once per run
}

// sessionThreads is the engine's thread count, the same four threads the
// simulation cell core.PaperOptions interleaves.
const sessionThreads = 4

// NewSession returns a session with the repo's standard measurement
// parameters (3 timing repeats, serial scheduling).
func NewSession() *Session {
	return &Session{Repeats: 3, Parallel: 1}
}

// controller returns the run controller, creating a default one on first
// use so panic isolation and degradation work without explicit setup.
func (s *Session) controller() *runctl.Controller {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	if s.Ctrl == nil {
		s.Ctrl = runctl.New(context.Background(), runctl.Config{Metrics: s.Obs})
	}
	return s.Ctrl
}

// Canceled reports whether the session's root context has died (e.g.
// SIGINT): remaining stages degrade immediately so the run unwinds fast.
func (s *Session) Canceled() bool {
	s.stateMu.Lock()
	c := s.Ctrl
	s.stateMu.Unlock()
	return c != nil && c.Err() != nil
}

// Degraded reports whether the RA stage for ds/alg failed and fell back to
// the Initial ordering, and why.
func (s *Session) Degraded(ds Dataset, alg reorder.Algorithm) (string, bool) {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	reason, ok := s.degraded[ds.Name+"/"+alg.Spec()]
	return reason, ok
}

// DegradedStages returns all degraded "dataset/spec" keys mapped to their
// failure reasons.
func (s *Session) DegradedStages() map[string]string {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	out := make(map[string]string, len(s.degraded))
	for k, v := range s.degraded {
		out[k] = v
	}
	return out
}

func (s *Session) setDegraded(key, reason string) {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	if s.degraded == nil {
		s.degraded = make(map[string]string)
	}
	s.degraded[key] = reason
}

func (s *Session) isDegraded(key string) bool {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	_, ok := s.degraded[key]
	return ok
}

// Restored reports whether the permutation for ds/alg was loaded from a
// checkpoint rather than computed this run.
func (s *Session) Restored(ds Dataset, alg reorder.Algorithm) bool {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	return s.restored[ds.Name+"/"+alg.Spec()]
}

func (s *Session) setRestored(key string) {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	if s.restored == nil {
		s.restored = make(map[string]bool)
	}
	s.restored[key] = true
}

// EngineThreads returns the worker count for wall-clock traversals: the
// session's four threads capped at the machine's parallelism, so
// idle-time numbers are not dominated by core oversubscription. The
// interleaved *simulation* keeps four threads regardless — its results
// are hardware-independent.
func (s *Session) EngineThreads() int {
	return min(sessionThreads, runtime.GOMAXPROCS(0))
}

// cacheStore lazily opens the artifact store over CacheDir. It returns
// nil when the session has no cache directory or the directory is
// unusable — the latter is logged once and the run proceeds uncached
// rather than dying over a persistence problem.
func (s *Session) cacheStore() *store.Store {
	if s.CacheDir == "" {
		return nil
	}
	s.storeOnce.Do(func() {
		st, err := store.Open(s.FS, s.CacheDir, s.Obs)
		if err != nil {
			log.Printf("expt: cache directory unusable, running uncached: %v", err)
			return
		}
		s.stor = st
	})
	return s.stor
}

// Graph returns the memoized graph of ds.
func (s *Session) Graph(ds Dataset) *graph.Graph {
	return s.graphs.Do(ds.Name, func() *graph.Graph {
		start := time.Now()
		g := ds.Build()
		sp := s.Obs.Span("graph/" + ds.Name)
		sp.AddEvents(g.NumEdges())
		sp.Done(start)
		return g
	})
}

// Reorder returns the memoized reordering result of alg on ds, keyed on
// alg.Spec() so distinct configurations sharing a display name (go and
// go:window=1 are both "GO") never share a result. The computation runs
// as the run-control stage "reorder/<ds>/<alg.Name()>": a panic,
// deadline overrun or exhausted retry degrades the result to the Initial
// ordering (recorded; see Degraded) instead of aborting the run.
//
// With CacheDir set, the pair's permutation lives in the artifact store:
// the stage runs under the checkpoint's exclusive file lock, so
// concurrent sessions sharing one cache directory compute each
// permutation exactly once (whoever wins the lock computes; the others
// restore the verified result). With Resume set, a checkpoint that
// passes integrity and shape validation short-circuits the computation;
// a corrupt one is quarantined by the store and transparently
// regenerated. Fresh results are checkpointed write-through; a failed
// checkpoint write never fails the experiment, but it is counted
// (expt.checkpoint_write_failures) and logged once per run.
func (s *Session) Reorder(ds Dataset, alg reorder.Algorithm) reorder.Result {
	spec := alg.Spec()
	key := ds.Name + "/" + spec
	return s.reorders.Do(key, func() reorder.Result {
		g := s.Graph(ds)
		stage := "reorder/" + ds.Name + "/" + alg.Name()
		compute := func() (reorder.Result, error) {
			var res reorder.Result
			err := s.controller().Run(stage, func(ctx context.Context) error {
				if err := runctl.Fire(ctx, stage); err != nil {
					return err
				}
				r, err := reorder.RunContext(ctx, alg, g)
				if err != nil {
					return err
				}
				res = r
				return nil
			})
			return res, err
		}
		degrade := func(err error) reorder.Result {
			// Graceful degradation: the row falls back to the Initial ordering
			// rather than killing the run and discarding sibling results.
			s.setDegraded(key, degradeReason(err))
			s.Obs.Counter("expt.degraded_stages").Inc()
			return reorder.Result{Algorithm: alg.Name(), Perm: graph.Identity(g.NumVertices())}
		}
		record := func(res reorder.Result) {
			// The stage span (wall recorded by runctl) gets the deterministic
			// facts: vertices permuted, permutation bytes produced. Allocator
			// traffic is nondeterministic, so it goes in a histogram where
			// only the observation count survives manifest normalization.
			sp := s.Obs.Span(stage)
			sp.AddEvents(uint64(len(res.Perm)))
			sp.AddBytes(4 * uint64(len(res.Perm)))
			s.Obs.Histogram("reorder.alloc_bytes").Observe(float64(res.AllocBytes))
		}

		st := s.cacheStore()
		if st == nil {
			res, err := compute()
			if err != nil {
				return degrade(err)
			}
			record(res)
			return res
		}

		name := CheckpointName(ds.Name, spec)
		var res reorder.Result
		check := func(sections []store.Section) error {
			r, err := decodePermSections(sections, st.Path(name), spec, g.NumVertices())
			if err == nil {
				r.Algorithm = alg.Name()
				res = r
			}
			return err
		}
		got, err := st.GetOrCompute(name, s.Resume, check, func() ([]store.Section, error) {
			r, err := compute()
			if err != nil {
				return nil, err
			}
			res = r
			return encodePermSections(spec, r), nil
		})
		if err != nil {
			return degrade(err)
		}
		if got.Restored {
			s.setRestored(key)
			s.Obs.Counter("expt.checkpoint_restores").Inc()
			return res
		}
		record(res)
		if got.WriteErr != nil {
			// The result is fine, only persistence failed: count it in the
			// manifest and tell the user once instead of dropping it silently.
			s.Obs.Counter("expt.checkpoint_write_failures").Inc()
			s.warnOnce.Do(func() {
				log.Printf("expt: checkpoint write failed, resume will recompute %s (further failures counted, not logged): %v", key, got.WriteErr)
			})
		}
		return res
	})
}

// seedReorder installs a precomputed result of alg so later
// Relabeled/Simulate/TimeTraversal calls reuse it instead of recomputing.
func (s *Session) seedReorder(ds Dataset, alg reorder.Algorithm, r reorder.Result) {
	s.reorders.Set(ds.Name+"/"+alg.Spec(), r)
}

// degradeReason compresses a stage failure into the short reason shown in
// table footnotes.
func degradeReason(err error) string {
	var se *runctl.StageError
	switch {
	case errors.As(err, &se) && se.Panicked():
		return fmt.Sprintf("panic: %v", se.Recovered)
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline exceeded"
	case errors.Is(err, context.Canceled):
		return "canceled"
	default:
		return err.Error()
	}
}

// Relabeled returns the memoized graph of ds relabeled by alg. Identity
// short-circuits to the original graph, as do degraded reorderings (their
// permutation is the identity).
func (s *Session) Relabeled(ds Dataset, alg reorder.Algorithm) *graph.Graph {
	if _, ok := alg.(reorder.Identity); ok {
		return s.Graph(ds)
	}
	key := ds.Name + "/" + alg.Spec()
	r := s.Reorder(ds, alg)
	if s.isDegraded(key) {
		return s.Graph(ds)
	}
	return s.relabeled.Do(key, func() *graph.Graph {
		start := time.Now()
		rg := s.Graph(ds).Relabel(r.Perm)
		sp := s.Obs.Span("relabel/" + ds.Name + "/" + alg.Name())
		sp.AddEvents(uint64(rg.NumVertices()))
		sp.Done(start)
		return rg
	})
}

// CacheFor returns the scaled L3 geometry for ds.
func (s *Session) CacheFor(ds Dataset) cachesim.Config {
	return cachesim.ScaledL3(s.Graph(ds).NumVertices(), cachesim.DefaultVertexCacheFraction)
}

// Simulate returns the memoized simulation of one SpMV traversal of the
// relabeled graph in direction dir, with every observer the tables read:
// the session's scaled L3 and DTLB, four interleaved threads,
// per-vertex attribution and 200 ECS snapshots. The observers only read
// the cache, so its counters are those of a simulation without them.
//
// The simulation runs as the run-control stage "simulate/<ds>/<alg>",
// suffixed "/<dir>" for the push directions, so each direction of a cell
// has its own span, counters and failpoint:
// SIGINT or a stage deadline stops it early (Canceled set on the partial
// counters), and a panic inside the simulator degrades to zeroed counters
// instead of killing the run. A canceled result is not memoized.
func (s *Session) Simulate(ds Dataset, alg reorder.Algorithm, dir trace.Direction) core.SimResult {
	key := ds.Name + "/" + alg.Spec() + "/" + dir.String()
	return s.sims.DoUnless(key, func() core.SimResult {
		g := s.Relabeled(ds, alg)
		opts := core.PaperOptions(g, dir)
		opts.SnapshotEvery = core.ECSInterval(g)
		opts.PerVertex = true
		stage := "simulate/" + ds.Name + "/" + alg.Name()
		if dir != trace.Pull {
			stage += "/" + dir.String()
		}
		var res core.SimResult
		err := s.controller().Run(stage, func(ctx context.Context) error {
			if err := runctl.Fire(ctx, stage); err != nil {
				return err
			}
			opts.Ctx = ctx
			res = core.SimulateSpMV(g, opts)
			if res.Canceled {
				return runctl.ErrCanceled
			}
			return nil
		})
		if err != nil {
			res.Canceled = true
			return res
		}
		sp := s.Obs.Span(stage)
		sp.AddEvents(res.Cache.Accesses)
		sp.AddBytes(res.BytesTouched)
		res.Cache.Record(s.Obs, "sim.cache")
		res.TLB.Record(s.Obs, "sim.tlb")
		return res
	}, func(r core.SimResult) bool { return r.Canceled })
}

// TimeTraversal measures the wall-clock time and idle percentage of the
// engine running one traversal of the relabeled graph, taking the best of
// s.Repeats runs after one warmup (the paper reports steady-state SpMV
// iteration time). Callers must not run timings concurrently with other
// work — the two-phase tables precompute graphs in parallel, then time on
// a quiet machine serially.
func (s *Session) TimeTraversal(ds Dataset, alg reorder.Algorithm, dir trace.Direction) (time.Duration, float64) {
	g := s.Relabeled(ds, alg)
	ctx := s.controller().Context()
	e := spmv.New(g, s.EngineThreads())
	e.Metrics = s.Obs
	n := g.NumVertices()
	src := make([]float64, n)
	dst := make([]float64, n)
	for i := range src {
		src[i] = float64(i%13) + 1
	}
	run := func() spmv.Stats {
		switch dir {
		case trace.Pull:
			st, _ := e.PullContext(ctx, src, dst)
			return st
		case trace.PushRead:
			st, _ := e.PushReadContext(ctx, src, dst)
			return st
		default:
			for i := range dst {
				dst[i] = 0
			}
			st, _ := e.PushContext(ctx, src, dst)
			return st
		}
	}
	run() // warmup
	best := run()
	for i := 1; i < s.Repeats && !best.Canceled; i++ {
		if st := run(); st.Elapsed < best.Elapsed {
			best = st
		}
	}
	return best.Elapsed, best.IdlePct
}

// StandardAlgorithms returns the paper's algorithm line-up for the main
// tables: Baseline (Initial), SB, GO, RO.
func StandardAlgorithms() []reorder.Algorithm {
	return []reorder.Algorithm{
		reorder.Identity{},
		reorder.MustNew("sb"),
		reorder.MustNew("go"),
		reorder.MustNew("ro"),
	}
}

// fmtDuration renders d the way the paper's tables do (ms for traversals,
// s for preprocessing).
func fmtMillis(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d.Microseconds())/1000)
}

func fmtSeconds(d time.Duration) string {
	return fmt.Sprintf("%.2f", d.Seconds())
}
