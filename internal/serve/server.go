package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"graphlocality/internal/obs"
	"graphlocality/internal/runctl"
	"graphlocality/internal/store"
	"graphlocality/internal/vfs"
)

// Config tunes a Server. The zero value is usable for tests; production
// callers set at least CacheDir and Version.
type Config struct {
	// Workers is the size of the execution pool (default 4). The pool is
	// the concurrency bound: admission can hold QueueMax more jobs.
	Workers int
	// QueueMax bounds the admission queue (default 64). A full queue
	// sheds with 429.
	QueueMax int
	// DefaultDeadline applies when a request has no deadline_ms
	// (default 10s). Deadlines cover queue wait plus execution.
	DefaultDeadline time.Duration
	// Limits bound request size/scale/deadline.
	Limits Limits
	// CacheDir, when non-empty, backs results with the crash-safe
	// artifact store (cross-process single-flight dedup).
	CacheDir string
	// FS routes the result cache's disk operations (nil = the real
	// filesystem). Chaos tests inject a vfs.FaultFS here.
	FS vfs.FS
	// BreakerThreshold is the consecutive store-failure count that opens
	// the circuit breaker (default 3); BreakerCooldown is how long it
	// stays open (default 5s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// JobHistory caps how many terminal jobs stay queryable via
	// GET /v1/jobs/{id} (default 4096). Beyond the cap the oldest
	// terminal records are evicted, so a long-lived daemon's job
	// registry cannot grow without bound.
	JobHistory int
	// Obs receives the daemon's counters and gauges (nil: a private
	// registry is created; Registry() exposes it either way).
	Obs *obs.Registry
	// Version is what GET /v1/version reports.
	Version string
	// Log receives operational messages (nil: standard logger).
	Log *log.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueMax <= 0 {
		c.QueueMax = 64
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 10 * time.Second
	}
	c.Limits = c.Limits.withDefaults()
	if c.JobHistory <= 0 {
		c.JobHistory = 4096
	}
	if c.Obs == nil {
		c.Obs = obs.NewRegistry()
	}
	if c.Log == nil {
		c.Log = log.Default()
	}
	if c.Version == "" {
		c.Version = "dev"
	}
	return c
}

// job is one admitted request and its lifecycle record.
type job struct {
	id  string
	req JobRequest

	// ctx carries the job's deadline (admission to terminal state) and is
	// cancelled by client disconnect (sync jobs), drain force-cancel, or
	// server close.
	ctx      context.Context
	cancel   context.CancelFunc
	admitted time.Time
	done     chan struct{} // closed by execute once the job is terminal and retired

	mu       sync.Mutex
	state    JobState
	cache    string
	errMsg   string
	result   *JobResult
	finished time.Time
}

func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID: j.id, Tenant: j.req.Tenant, Kind: j.req.Kind,
		State: j.state, Cache: j.cache, Error: j.errMsg, Result: j.result,
	}
	if j.state.Terminal() {
		st.ElapsedMS = float64(j.finished.Sub(j.admitted).Microseconds()) / 1000
	}
	return st
}

func (j *job) setRunning() {
	j.mu.Lock()
	if j.state == StateQueued {
		j.state = StateRunning
	}
	j.mu.Unlock()
}

// finish moves the job to a terminal state exactly once.
func (j *job) finish(state JobState, cache string, res *JobResult, errMsg string) bool {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return false
	}
	j.state, j.cache, j.result, j.errMsg = state, cache, res, errMsg
	j.finished = time.Now()
	j.mu.Unlock()
	j.cancel()
	return true
}

// Server is the localityd daemon: admission queue, worker pool, job
// registry and the HTTP API over them. Create with New, serve its
// Handler, stop with Drain (graceful) or Close (immediate).
type Server struct {
	cfg     Config
	reg     *obs.Registry
	store   *store.Store
	breaker *breaker
	queue   *queue

	baseCtx    context.Context
	baseCancel context.CancelFunc

	jobs   sync.Map // id -> *job
	jobSeq atomic.Uint64

	draining atomic.Bool
	workers  sync.WaitGroup
	started  time.Time
	inflight atomic.Int64

	historyMu sync.Mutex
	history   []string // terminal job ids, oldest first, capped at JobHistory

	// Hoisted counters (see obs design rules).
	cAdmitted, cCompleted, cFailed, cCanceled, cShed *obs.Counter
	cCacheHits, cCacheMisses, cPanics                *obs.Counter
	cStoreErrors, cDegraded                          *obs.Counter
	gInflight                                        *obs.Gauge
}

// New builds a server and starts its worker pool. CacheDir problems are
// logged and degrade the server to direct compute (the service must come
// up even when its cache tier is broken).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := cfg.Obs
	s := &Server{
		cfg:     cfg,
		reg:     reg,
		breaker: newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
		started: time.Now(),

		cAdmitted:    reg.Counter("serve.jobs_admitted"),
		cCompleted:   reg.Counter("serve.jobs_completed"),
		cFailed:      reg.Counter("serve.jobs_failed"),
		cCanceled:    reg.Counter("serve.jobs_canceled"),
		cShed:        reg.Counter("serve.jobs_shed"),
		cCacheHits:   reg.Counter("serve.cache_hits"),
		cCacheMisses: reg.Counter("serve.cache_misses"),
		cPanics:      reg.Counter("serve.panics_isolated"),
		cStoreErrors: reg.Counter("serve.store_errors"),
		cDegraded:    reg.Counter("serve.store_degraded"),
		gInflight:    reg.Gauge("serve.inflight"),
	}
	s.queue = newQueue(cfg.QueueMax, reg.Gauge("serve.queue_depth"))
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	if cfg.CacheDir != "" {
		st, err := store.Open(cfg.FS, cfg.CacheDir, reg)
		if err != nil {
			cfg.Log.Printf("localityd: cache directory unusable, serving uncached: %v", err)
		} else {
			s.store = st
		}
	}
	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s
}

// Registry exposes the server's metric registry (manifest snapshots,
// tests).
func (s *Server) Registry() *obs.Registry { return s.reg }

// QueueDepth returns the number of queued (not yet running) jobs.
func (s *Server) QueueDepth() int { return s.queue.Depth() }

// Submit validates, admits and registers a job. The returned job has
// been admitted; the caller waits on j.done (sync) or polls (async).
// Errors: *RequestError (400), ErrQueueFull (429), ErrDraining (503).
func (s *Server) Submit(req JobRequest) (*job, error) {
	if err := ValidateJobRequest(&req, s.cfg.Limits); err != nil {
		return nil, err
	}
	if s.draining.Load() {
		return nil, ErrDraining
	}
	deadline := s.cfg.DefaultDeadline
	if req.DeadlineMS > 0 {
		deadline = time.Duration(req.DeadlineMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(s.baseCtx, deadline)
	j := &job{
		id:       fmt.Sprintf("job-%06d", s.jobSeq.Add(1)),
		req:      req,
		ctx:      ctx,
		cancel:   cancel,
		admitted: time.Now(),
		done:     make(chan struct{}),
		state:    StateQueued,
	}
	if err := s.queue.Add(j); err != nil {
		cancel()
		if errors.Is(err, ErrQueueFull) {
			s.cShed.Inc()
		}
		return nil, err
	}
	s.jobs.Store(j.id, j)
	s.cAdmitted.Inc()
	return j, nil
}

// Job returns the job registered under id.
func (s *Server) Job(id string) (*job, bool) {
	v, ok := s.jobs.Load(id)
	if !ok {
		return nil, false
	}
	return v.(*job), true
}

// worker pulls jobs off the admission queue until it is closed and empty.
func (s *Server) worker() {
	defer s.workers.Done()
	for {
		j, ok := s.queue.Next()
		if !ok {
			return
		}
		s.execute(j)
	}
}

// execute drives one job to a terminal state. Every exit path calls
// j.finish, so an admitted job can never be lost — the invariant the
// drain and chaos suites assert.
func (s *Server) execute(j *job) {
	s.gInflight.Set(float64(s.inflight.Add(1)))
	defer func() {
		s.gInflight.Set(float64(s.inflight.Add(-1)))
		// Retire before waking waiters on j.done, so a client that has
		// seen this job's terminal state also sees the eviction it causes.
		s.retire(j)
		close(j.done)
	}()
	// A job whose deadline expired (or whose client vanished) while it
	// was queued terminates typed without burning a worker on it.
	if err := j.ctx.Err(); err != nil {
		s.finishErr(j, err)
		return
	}
	j.setRunning()

	var (
		res JobResult
		hit bool
	)
	// The compute stage runs under runctl: panic isolation (a panicking
	// RA becomes a typed *StageError for this one job), transient retry,
	// and the job context's deadline.
	ctrl := runctl.New(j.ctx, runctl.Config{Metrics: s.reg, BaseBackoff: 10 * time.Millisecond})
	err := ctrl.Run("serve/"+string(j.req.Kind), func(ctx context.Context) error {
		if err := runctl.Fire(ctx, PointJobRun); err != nil {
			return err
		}
		r, h, err := s.runCached(ctx, j.req, func() (JobResult, error) {
			return compute(ctx, j.req)
		})
		if err != nil {
			return err
		}
		res, hit = r, h
		return nil
	})
	if err != nil {
		s.finishErr(j, err)
		return
	}
	cache := ""
	if s.store != nil && !j.req.NoCache {
		if hit {
			cache = "hit"
			s.cCacheHits.Inc()
		} else {
			cache = "miss"
			s.cCacheMisses.Inc()
		}
	}
	if j.finish(StateDone, cache, &res, "") {
		s.cCompleted.Inc()
	}
}

// finishErr folds an execution error into the job's terminal state.
func (s *Server) finishErr(j *job, err error) {
	var se *runctl.StageError
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		if j.finish(StateCanceled, "", nil, "deadline exceeded") {
			s.cCanceled.Inc()
		}
	case errors.Is(err, context.Canceled), errors.Is(err, runctl.ErrCanceled):
		msg := "canceled"
		if s.draining.Load() {
			msg = "canceled: server draining"
		}
		// A cooperative cancel triggered by the job's own deadline is a
		// deadline, not an operator cancel.
		if j.ctx.Err() == context.DeadlineExceeded {
			msg = "deadline exceeded"
		}
		if j.finish(StateCanceled, "", nil, msg) {
			s.cCanceled.Inc()
		}
	case errors.As(err, &se):
		if se.Panicked() {
			s.cPanics.Inc()
		}
		if j.finish(StateFailed, "", nil, se.Error()) {
			s.cFailed.Inc()
		}
	default:
		if j.finish(StateFailed, "", nil, err.Error()) {
			s.cFailed.Inc()
		}
	}
}

// retire records a terminal job in the bounded history, evicting the
// oldest terminal record once the cap is exceeded.
func (s *Server) retire(j *job) {
	s.historyMu.Lock()
	s.history = append(s.history, j.id)
	var evict string
	if len(s.history) > s.cfg.JobHistory {
		evict = s.history[0]
		s.history = s.history[1:]
	}
	s.historyMu.Unlock()
	if evict != "" {
		s.jobs.Delete(evict)
	}
}

// Drain gracefully stops the server: admission closes immediately
// (healthz 503, POST 503), then every already-admitted job runs to a
// terminal state. If ctx expires first, the remaining jobs are
// force-cancelled — they still terminate, typed as canceled, because
// cancellation is threaded through every compute loop. Drain returns nil
// once all workers have stopped; an admitted job is never silently
// dropped either way.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.queue.CloseAdmit()

	finished := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(finished)
	}()
	select {
	case <-finished:
		return nil
	case <-ctx.Done():
		// Out of grace: cancel every in-flight/queued job context. The
		// cooperative loops observe it within one poll interval, workers
		// drain the queue into typed canceled states, and Wait returns.
		s.baseCancel()
		<-finished
		return nil
	}
}

// Close stops the server immediately: admission closes and every job
// context is cancelled. Admitted jobs still reach typed terminal states.
func (s *Server) Close() {
	s.draining.Store(true)
	s.queue.CloseAdmit()
	s.baseCancel()
	s.workers.Wait()
}

// Handler returns the daemon's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/version", s.handleVersion)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the client is gone if this fails; nothing to do
}

type errorBody struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// Retry-After bounds for shed (429) responses. A fixed hint would
// synchronize every shed client into one retry storm that refills the
// queue at the same instant it drained; jittering across a small window
// spreads the herd.
const (
	retryAfterMin = 1
	retryAfterMax = 3
)

// retryAfterHint returns a whole-second Retry-After value jittered
// uniformly over [retryAfterMin, retryAfterMax].
func retryAfterHint() string {
	return strconv.Itoa(retryAfterMin + rand.Intn(retryAfterMax-retryAfterMin+1))
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := DecodeJobRequest(http.MaxBytesReader(w, r.Body, MaxRequestBytes), s.cfg.Limits)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error(), Code: "invalid"})
		return
	}
	j, err := s.Submit(req)
	switch {
	case err == nil:
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", retryAfterHint())
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error(), Code: "shed"})
		return
	case errors.Is(err, ErrDraining):
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error(), Code: "draining"})
		return
	default:
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error(), Code: "invalid"})
		return
	}
	if req.Async {
		writeJSON(w, http.StatusAccepted, j.status())
		return
	}
	// Synchronous: wait for the terminal state. A vanished client cancels
	// the job (its slot is freed within one poll interval); the job's own
	// deadline guarantees this select never blocks forever.
	select {
	case <-j.done:
	case <-r.Context().Done():
		j.cancel()
		<-j.done
	}
	st := j.status()
	writeJSON(w, statusCode(st), st)
}

// statusCode maps a terminal job status to its HTTP status.
func statusCode(st JobStatus) int {
	switch st.State {
	case StateDone:
		return http.StatusOK
	case StateCanceled:
		if st.Error == "deadline exceeded" {
			return http.StatusGatewayTimeout
		}
		return http.StatusServiceUnavailable
	case StateFailed:
		return http.StatusInternalServerError
	default:
		return http.StatusOK // non-terminal: async status polling
	}
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job id", Code: "not_found"})
		return
	}
	st := j.status()
	if !st.State.Terminal() {
		writeJSON(w, http.StatusOK, st)
		return
	}
	writeJSON(w, statusCode(st), st)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleMetrics snapshots the registry as an obs manifest. Uptime and
// queue depth are refreshed at scrape time, so operators see live gauges
// without a background ticker.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.reg.Gauge("serve.uptime_seconds").Set(time.Since(s.started).Seconds())
	s.reg.Gauge("serve.queue_depth").Set(float64(s.queue.Depth()))
	m := s.reg.Manifest(obs.Meta{
		Tool:       "localityd",
		Command:    "serve",
		GoMaxProcs: runtime.GOMAXPROCS(0),
		WallMS:     float64(time.Since(s.started).Microseconds()) / 1000,
	})
	data, err := m.Encode()
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error(), Code: "internal"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(data)
}

func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{
		"version": s.cfg.Version,
		"go":      runtime.Version(),
	})
}
