package runctl

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"graphlocality/internal/vfs"
)

// recordedSleep is a real clock whose Sleep records the requested
// duration and returns at once, so retry tests are deterministic and
// instant.
type recordedSleep struct {
	vfs.RealClock
	mu    sync.Mutex
	slept []time.Duration
}

func (r *recordedSleep) Sleep(ctx context.Context, d time.Duration) error {
	r.mu.Lock()
	r.slept = append(r.slept, d)
	r.mu.Unlock()
	return ctx.Err()
}

func (r *recordedSleep) durations() []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]time.Duration(nil), r.slept...)
}

func TestBackoffScheduleCappedAndDeterministic(t *testing.T) {
	base := 50 * time.Millisecond
	want := []time.Duration{
		50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond,
		400 * time.Millisecond, 800 * time.Millisecond, 1600 * time.Millisecond,
		2 * time.Second, 2 * time.Second,
	}
	for i := range want {
		if got := backoff(base, i+1); got != want[i] {
			t.Errorf("sleep %d = %v, want %v", i, got, want[i])
		}
	}
	// Deterministic, and the cap holds far past the doubling range.
	for attempt := 1; attempt < 100; attempt++ {
		if a, b := backoff(base, attempt), backoff(base, attempt); a != b || a > maxBackoff || a <= 0 {
			t.Fatalf("attempt %d: sleeps %v and %v, want equal and within (0, %v]", attempt, a, b, maxBackoff)
		}
	}
}

func TestRunRetriesTransientWithBackoff(t *testing.T) {
	rec := &recordedSleep{}
	c := New(context.Background(), Config{Clock: rec})
	calls := 0
	err := c.Run("stage-x", func(ctx context.Context) error {
		calls++
		if calls < maxAttempts {
			return Transient(errors.New("flaky"))
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if calls != maxAttempts {
		t.Fatalf("fn ran %d times, want %d", calls, maxAttempts)
	}
	want := []time.Duration{backoff(c.cfg.BaseBackoff, 1), backoff(c.cfg.BaseBackoff, 2)}
	got := rec.durations()
	if len(got) != len(want) {
		t.Fatalf("slept %d times (%v), want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("sleep %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestRunTransientExhaustion(t *testing.T) {
	rec := &recordedSleep{}
	c := New(context.Background(), Config{Clock: rec})
	calls := 0
	err := c.Run("stage-x", func(ctx context.Context) error {
		calls++
		return Transient(errors.New("always flaky"))
	})
	var se *StageError
	if !errors.As(err, &se) {
		t.Fatalf("want *StageError, got %T: %v", err, err)
	}
	if se.Stage != "stage-x" || se.Attempts != 3 || calls != 3 {
		t.Fatalf("stage=%q attempts=%d calls=%d, want stage-x/3/3", se.Stage, se.Attempts, calls)
	}
	if !IsTransient(se.Err) {
		t.Error("underlying transient marker lost")
	}
	if n := len(rec.durations()); n != 2 {
		t.Errorf("slept %d times, want 2", n)
	}
}

func TestRunNonTransientNotRetried(t *testing.T) {
	c := New(context.Background(), Config{})
	calls := 0
	boom := errors.New("hard failure")
	err := c.Run("stage-x", func(ctx context.Context) error {
		calls++
		return boom
	})
	var se *StageError
	if !errors.As(err, &se) {
		t.Fatalf("want *StageError, got %T", err)
	}
	if calls != 1 || se.Attempts != 1 {
		t.Fatalf("calls=%d attempts=%d, want 1/1", calls, se.Attempts)
	}
	if !errors.Is(err, boom) {
		t.Error("cause not preserved through Unwrap")
	}
}

func TestRunPanicPreservesStageIdentity(t *testing.T) {
	c := New(context.Background(), Config{})
	calls := 0
	err := c.Run("reorder/TwtrT/GO", func(ctx context.Context) error {
		calls++
		panic("kaboom")
	})
	var se *StageError
	if !errors.As(err, &se) {
		t.Fatalf("want *StageError, got %T: %v", err, err)
	}
	if se.Stage != "reorder/TwtrT/GO" {
		t.Errorf("stage = %q", se.Stage)
	}
	if !se.Panicked() || se.Recovered != "kaboom" {
		t.Errorf("recovered = %v", se.Recovered)
	}
	if len(se.Stack) == 0 {
		t.Error("panic stack not captured")
	}
	if calls != 1 {
		t.Errorf("panicking stage ran %d times, want 1 (never retried)", calls)
	}
	if want := "stage reorder/TwtrT/GO: panic: kaboom"; se.Error() != want {
		t.Errorf("Error() = %q, want %q", se.Error(), want)
	}
}

func TestRunRootCancellationPropagates(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := New(ctx, Config{})
	err := c.Run("stage-x", func(ctx context.Context) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	var se *StageError
	if errors.As(err, &se) {
		t.Error("root cancellation must not masquerade as a stage failure")
	}
}

func TestRunStageDeadline(t *testing.T) {
	c := New(context.Background(), Config{StageTimeout: 10 * time.Millisecond})
	err := c.Run("slow", func(ctx context.Context) error {
		poll := NewPoller(ctx, 1)
		for {
			if err := poll.Check(); err != nil {
				return err
			}
			time.Sleep(time.Millisecond)
		}
	})
	var se *StageError
	if !errors.As(err, &se) {
		t.Fatalf("want *StageError, got %T: %v", err, err)
	}
	if !errors.Is(err, ErrCanceled) {
		t.Errorf("cooperative cancellation error lost: %v", err)
	}
	if se.Stage != "slow" {
		t.Errorf("stage = %q", se.Stage)
	}
}

func TestPollerCancelsWithinOneInterval(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	const every = 8
	p := NewPoller(ctx, every)
	for i := 0; i < 3*every; i++ {
		if err := p.Check(); err != nil {
			t.Fatalf("premature cancel at call %d: %v", i, err)
		}
	}
	cancel()
	for i := 1; i <= every; i++ {
		if err := p.Check(); err != nil {
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("want ErrCanceled, got %v", err)
			}
			return
		}
	}
	t.Fatalf("poller did not observe cancellation within %d calls", every)
}

func TestPollerNilContextNeverCancels(t *testing.T) {
	p := NewPoller(nil, 1)
	for i := 0; i < 100; i++ {
		if err := p.Check(); err != nil {
			t.Fatalf("nil-ctx poller canceled: %v", err)
		}
	}
}

func TestHeartbeatEvents(t *testing.T) {
	var mu sync.Mutex
	var beats []Event
	c := New(context.Background(), Config{
		Heartbeat: time.Millisecond,
		OnEvent: func(e Event) {
			if e.Kind == EventHeartbeat {
				mu.Lock()
				beats = append(beats, e)
				mu.Unlock()
			}
		},
	})
	if err := c.Run("slow", func(ctx context.Context) error {
		time.Sleep(30 * time.Millisecond)
		return nil
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(beats) == 0 {
		t.Fatal("no heartbeat events for a 30ms stage with a 1ms period")
	}
	for _, b := range beats {
		if b.Stage != "slow" {
			t.Errorf("heartbeat names stage %q", b.Stage)
		}
	}
}

func TestFailpointModes(t *testing.T) {
	t.Run("error", func(t *testing.T) {
		remove := Inject("fp/error", Failpoint{Mode: FailError})
		defer remove()
		c := New(context.Background(), Config{})
		err := c.Run("fp/error", func(ctx context.Context) error {
			return Fire(ctx, "fp/error")
		})
		var se *StageError
		if !errors.As(err, &se) || se.Attempts != 1 {
			t.Fatalf("want 1-attempt StageError, got %v", err)
		}
		if HitCount("fp/error") != 1 {
			t.Errorf("hits = %d", HitCount("fp/error"))
		}
	})
	t.Run("transient heals", func(t *testing.T) {
		remove := Inject("fp/flaky", Failpoint{Mode: FailTransient, Times: 2})
		defer remove()
		rec := &recordedSleep{}
		c := New(context.Background(), Config{Clock: rec})
		err := c.Run("fp/flaky", func(ctx context.Context) error {
			return Fire(ctx, "fp/flaky")
		})
		if err != nil {
			t.Fatalf("healed transient fault still failed: %v", err)
		}
		if hits := HitCount("fp/flaky"); hits != 3 {
			t.Errorf("hits = %d, want 3 (two faults + one success)", hits)
		}
		if n := len(rec.durations()); n != 2 {
			t.Errorf("slept %d times, want 2", n)
		}
	})
	t.Run("panic", func(t *testing.T) {
		remove := Inject("fp/panic", Failpoint{Mode: FailPanic, Panic: "injected"})
		defer remove()
		c := New(context.Background(), Config{})
		err := c.Run("fp/panic", func(ctx context.Context) error {
			return Fire(ctx, "fp/panic")
		})
		var se *StageError
		if !errors.As(err, &se) || !se.Panicked() || se.Recovered != "injected" {
			t.Fatalf("want injected panic StageError, got %v", err)
		}
	})
	t.Run("hang until cancel", func(t *testing.T) {
		remove := Inject("fp/hang", Failpoint{Mode: FailHang})
		defer remove()
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(5 * time.Millisecond)
			cancel()
		}()
		start := time.Now()
		err := Fire(ctx, "fp/hang")
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("want ErrCanceled, got %v", err)
		}
		if time.Since(start) > time.Second {
			t.Error("hang outlived its context by far")
		}
	})
	t.Run("removed", func(t *testing.T) {
		remove := Inject("fp/gone", Failpoint{Mode: FailError})
		remove()
		if err := Fire(context.Background(), "fp/gone"); err != nil {
			t.Fatalf("removed failpoint still fires: %v", err)
		}
	})
}

func TestTransientNilAndExample(t *testing.T) {
	if Transient(nil) != nil {
		t.Error("Transient(nil) must be nil")
	}
	err := Transient(fmt.Errorf("io glitch"))
	if !IsTransient(err) {
		t.Error("marker lost")
	}
	if IsTransient(errors.New("plain")) {
		t.Error("plain error marked transient")
	}
}

func TestHeartbeatOnFakeClockNoRealSleeps(t *testing.T) {
	clock := vfs.NewFakeClock(time.Unix(0, 0))
	var mu sync.Mutex
	var beats []Event
	c := New(context.Background(), Config{
		Heartbeat: time.Second,
		Clock:     clock,
		OnEvent: func(e Event) {
			if e.Kind == EventHeartbeat {
				mu.Lock()
				beats = append(beats, e)
				mu.Unlock()
			}
		},
	})
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- c.Run("beating", func(ctx context.Context) error {
			<-release
			return nil
		})
	}()
	for i := 1; i <= 3; i++ {
		waitForWaiters(t, clock, 1) // heartbeat loop re-arms after each beat
		clock.Advance(time.Second)
		deadline := time.Now().Add(5 * time.Second)
		for {
			mu.Lock()
			n := len(beats)
			mu.Unlock()
			if n >= i {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("beat %d never arrived", i)
			}
			time.Sleep(time.Millisecond)
		}
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("Run: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(beats) < 3 {
		t.Fatalf("got %d heartbeats, want >= 3", len(beats))
	}
	// Elapsed must come from the fake clock: whole seconds, monotone.
	for i, b := range beats[:3] {
		if want := time.Duration(i+1) * time.Second; b.Elapsed != want {
			t.Errorf("beat %d Elapsed = %v, want %v (fake-clock time)", i, b.Elapsed, want)
		}
	}
}

// waitForWaiters spins until the fake clock has at least n registered
// timer waiters, so Advance cannot race ahead of the code under test.
func waitForWaiters(t *testing.T, c *vfs.FakeClock, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.Waiters() < n {
		if time.Now().After(deadline) {
			t.Fatalf("clock never saw %d waiter(s)", n)
		}
		time.Sleep(time.Millisecond)
	}
}
