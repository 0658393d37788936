// Package runctl is the run-control layer of the experiment pipeline:
// cooperative cancellation, per-stage deadlines, panic isolation, capped
// exponential retry of transient failures, and progress heartbeats.
//
// The experiment harness chains expensive stages — dataset generation,
// reordering, relabeling, trace-based simulation — and without run control
// a single panic, hang or Ctrl-C anywhere discards every computed
// permutation. A Controller wraps each stage so that
//
//   - a panic inside a stage becomes a typed *StageError carrying the
//     stage name and the recovered value instead of crashing the process,
//   - a stage that exceeds its deadline is cancelled cooperatively (long
//     loops poll a Poller every few thousand iterations),
//   - transient failures are retried with capped exponential backoff,
//   - a heartbeat event fires periodically while a stage runs, so a hung
//     stage is detectable from the outside.
//
// The package depends only on the standard library and the (stdlib-only)
// obs metrics layer, so every layer of the repo (reorder, core, spmv,
// expt, cmd) can use it without cycles.
//
// Only the values that differ between callers are settings: the stage
// deadline, the first retry sleep, the heartbeat period, the clock, the
// event sink and the metrics registry. The attempt budget and the backoff
// cap are constants.
package runctl

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"graphlocality/internal/obs"
	"graphlocality/internal/vfs"
)

// ErrCanceled is returned (possibly wrapped) by cooperative loops that
// observed context cancellation and stopped early. Partial results
// accompanying it are valid as far as they go.
var ErrCanceled = errors.New("runctl: canceled")

// StageError is the typed failure of one pipeline stage. It preserves the
// stage identity, the attempt count, and — when the stage panicked — the
// recovered value and stack.
type StageError struct {
	// Stage is the name the stage was registered under ("reorder/TwtrS/GO").
	Stage string
	// Attempts is how many times the stage ran before giving up.
	Attempts int
	// Recovered is the value recovered from a panic, or nil for plain errors.
	Recovered any
	// Stack is the goroutine stack captured at panic time (nil otherwise).
	Stack []byte
	// Err is the underlying error (wrapped; nil when Recovered is set and
	// the panic value was not an error).
	Err error
}

// Error implements error.
func (e *StageError) Error() string {
	if e.Recovered != nil {
		return fmt.Sprintf("stage %s: panic: %v", e.Stage, e.Recovered)
	}
	return fmt.Sprintf("stage %s: %v", e.Stage, e.Err)
}

// Unwrap exposes the underlying error for errors.Is/As.
func (e *StageError) Unwrap() error { return e.Err }

// Panicked reports whether the stage failed by panicking.
func (e *StageError) Panicked() bool { return e.Recovered != nil }

// transientError marks an error as retryable.
type transientError struct{ err error }

func (t *transientError) Error() string { return "transient: " + t.err.Error() }
func (t *transientError) Unwrap() error { return t.err }

// Transient wraps err so the Controller retries the stage (with backoff)
// instead of failing it on the first attempt.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// IsTransient reports whether err is marked retryable.
func IsTransient(err error) bool {
	var t *transientError
	return errors.As(err, &t)
}

// EventKind classifies controller events.
type EventKind int

const (
	// EventHeartbeat fires periodically while a stage attempt runs.
	EventHeartbeat EventKind = iota
	// EventRetry fires before a backoff sleep between attempts.
	EventRetry
)

// Event is one progress or retry notification.
type Event struct {
	Kind    EventKind
	Stage   string
	Attempt int
	// Elapsed is the time since the current attempt started.
	Elapsed time.Duration
	// Backoff is the upcoming sleep (EventRetry only).
	Backoff time.Duration
	// Err is the failed attempt's error (EventRetry only).
	Err error
}

const (
	// maxAttempts is the attempt budget per stage: a transient failure
	// is retried at most twice.
	maxAttempts = 3
	// maxBackoff caps the retry sleep.
	maxBackoff = 2 * time.Second
)

// Config tunes a Controller. The zero value is usable: no stage deadline,
// 50ms base backoff, heartbeats disabled.
type Config struct {
	// StageTimeout bounds each stage attempt (0 = no per-stage deadline).
	StageTimeout time.Duration
	// BaseBackoff is the first retry sleep (default 50ms). Subsequent
	// sleeps double, capped at 2s.
	BaseBackoff time.Duration
	// Heartbeat is the progress-event period while a stage runs
	// (0 disables heartbeats).
	Heartbeat time.Duration
	// Clock supplies wall-clock reads and timer waits (heartbeats and
	// the backoff sleep). Nil means the real clock; tests inject a
	// vfs.FakeClock so heartbeat and retry behaviour is provable without
	// real sleeps.
	Clock vfs.Clock
	// OnEvent receives heartbeat and retry events (may be nil). It is
	// called from the controller's goroutines and must be fast.
	OnEvent func(Event)
	// Metrics receives the controller's counters (stage runs, retries,
	// panics, failures) and per-stage wall-clock spans. Nil disables
	// recording (the no-op path costs one nil check per stage, not per
	// loop iteration).
	Metrics *obs.Registry
}

// backoff returns the sleep before the retry that follows the given
// failed attempt (1-based): base doubled per earlier retry, capped at
// maxBackoff.
func backoff(base time.Duration, attempt int) time.Duration {
	d := base
	for i := 1; i < attempt && d < maxBackoff; i++ {
		d *= 2
	}
	return min(d, maxBackoff)
}

// Controller executes pipeline stages under one root context with panic
// isolation, deadlines, retries and heartbeats. Safe for concurrent use.
type Controller struct {
	ctx context.Context
	cfg Config

	// Counters are hoisted once here so the per-stage cost of disabled
	// observability is a nil check, not a map lookup.
	stageRuns, stageRetries, stagePanics, stageFailures *obs.Counter
}

// New returns a Controller rooted at ctx. A nil ctx means Background.
func New(ctx context.Context, cfg Config) *Controller {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 50 * time.Millisecond
	}
	cfg.Clock = vfs.ClockOf(cfg.Clock)
	return &Controller{
		ctx: ctx, cfg: cfg,
		stageRuns:     cfg.Metrics.Counter("runctl.stage_runs"),
		stageRetries:  cfg.Metrics.Counter("runctl.stage_retries"),
		stagePanics:   cfg.Metrics.Counter("runctl.stage_panics"),
		stageFailures: cfg.Metrics.Counter("runctl.stage_failures"),
	}
}

// Context returns the controller's root context.
func (c *Controller) Context() context.Context { return c.ctx }

// Err returns the root context's error (nil while the run is live).
func (c *Controller) Err() error { return c.ctx.Err() }

func (c *Controller) emit(e Event) {
	if c.cfg.OnEvent != nil {
		c.cfg.OnEvent(e)
	}
}

// Run executes fn as the named stage: panics become *StageError, the
// per-stage deadline is applied to fn's context, transient errors are
// retried with capped exponential backoff, and heartbeat events fire while
// fn runs. The returned error is nil, a *StageError, or a context error
// when the root context died.
func (c *Controller) Run(stage string, fn func(ctx context.Context) error) error {
	for attempt := 1; ; attempt++ {
		if err := c.ctx.Err(); err != nil {
			return err
		}
		err := c.attempt(stage, attempt, fn)
		if err == nil {
			return nil
		}
		// Root cancellation propagates as-is: the run is over, not the stage.
		if c.ctx.Err() != nil {
			return c.ctx.Err()
		}
		retryable := IsTransient(err)
		if se := new(StageError); errors.As(err, &se) {
			retryable = false // panics are never retried
			if se.Panicked() {
				c.stagePanics.Inc()
			}
		}
		if retryable && attempt < maxAttempts {
			sleep := backoff(c.cfg.BaseBackoff, attempt)
			c.stageRetries.Inc()
			c.emit(Event{Kind: EventRetry, Stage: stage, Attempt: attempt, Backoff: sleep, Err: err})
			if serr := c.cfg.Clock.Sleep(c.ctx, sleep); serr != nil {
				return serr
			}
			continue
		}
		var se *StageError
		if !errors.As(err, &se) {
			se = &StageError{Stage: stage, Err: err}
		}
		se.Attempts = attempt
		c.stageFailures.Inc()
		return se
	}
}

// attempt runs fn once with deadline, panic isolation and heartbeats.
func (c *Controller) attempt(stage string, attempt int, fn func(ctx context.Context) error) (err error) {
	ctx := c.ctx
	if c.cfg.StageTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.cfg.StageTimeout)
		defer cancel()
	}

	start := c.cfg.Clock.Now()
	defer func() {
		if err == nil {
			c.cfg.Metrics.Span(stage).Done(start)
			c.stageRuns.Inc()
		}
	}()

	var hbStop chan struct{}
	if c.cfg.Heartbeat > 0 && c.cfg.OnEvent != nil {
		hbStop = make(chan struct{})
		go func() {
			for {
				select {
				case <-hbStop:
					return
				case <-c.cfg.Clock.After(c.cfg.Heartbeat):
					c.emit(Event{Kind: EventHeartbeat, Stage: stage, Attempt: attempt,
						Elapsed: c.cfg.Clock.Since(start)})
				}
			}
		}()
	}
	defer func() {
		if hbStop != nil {
			close(hbStop)
		}
	}()

	// runBody executes fn with panic isolation, so a recovered panic
	// still passes through the deadline check below.
	runBody := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				se := &StageError{Stage: stage, Recovered: r, Stack: debug.Stack()}
				if e, ok := r.(error); ok {
					se.Err = e
				}
				err = se
			}
		}()
		return fn(ctx)
	}

	if err = runBody(); err != nil {
		// A deadline overrun of this attempt surfaces as the stage's error;
		// cooperative loops return ErrCanceled when the attempt ctx dies.
		if c.cfg.StageTimeout > 0 && ctx.Err() != nil && c.ctx.Err() == nil {
			return fmt.Errorf("deadline %v exceeded: %w", c.cfg.StageTimeout, err)
		}
		return err
	}
	if c.cfg.StageTimeout > 0 && ctx.Err() != nil && c.ctx.Err() == nil {
		return fmt.Errorf("deadline %v exceeded: %w", c.cfg.StageTimeout, ErrCanceled)
	}
	return nil
}

// Poller is the cooperative-cancellation checkpoint used inside long
// loops: Check increments a counter and inspects the context only every
// Every iterations, so the fast path is one branch and one add.
type Poller struct {
	ctx   context.Context
	every uint32
	n     uint32
}

// DefaultPollInterval is the Poller granularity used by the repo's long
// loops when the caller does not choose one: fine enough that cancellation
// latency is dominated by one loop body, coarse enough to be free.
const DefaultPollInterval = 4096

// NewPoller returns a Poller over ctx that polls every `every` calls
// (min 1). A nil ctx yields a Poller that never cancels.
func NewPoller(ctx context.Context, every int) *Poller {
	if every < 1 {
		every = 1
	}
	return &Poller{ctx: ctx, every: uint32(every)}
}

// Check returns ErrCanceled (wrapping the context cause) once the context
// is done, checking it only every Nth call.
func (p *Poller) Check() error {
	if p == nil || p.ctx == nil {
		return nil
	}
	p.n++
	if p.n%p.every != 0 {
		return nil
	}
	select {
	case <-p.ctx.Done():
		return fmt.Errorf("%w: %w", ErrCanceled, p.ctx.Err())
	default:
		return nil
	}
}
