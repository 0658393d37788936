package vfs

import (
	"context"
	"sort"
	"sync"
	"time"
)

// Clock abstracts wall-clock reads and timer waits so control loops
// (heartbeats, retry backoff) can run against a manually-advanced fake
// in tests instead of real sleeps.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// Since returns the elapsed time since t.
	Since(t time.Time) time.Duration
	// After returns a channel that delivers the current time once d has
	// elapsed.
	After(d time.Duration) <-chan time.Time
	// Sleep blocks for d or until ctx is done, returning ctx.Err() in the
	// latter case.
	Sleep(ctx context.Context, d time.Duration) error
}

// ClockOf maps a nil Clock to the real one, so structs can hold an
// optional Clock field and use it unconditionally.
func ClockOf(c Clock) Clock {
	if c == nil {
		return RealClock{}
	}
	return c
}

// RealClock is the production Clock: straight delegation to package time.
type RealClock struct{}

func (RealClock) Now() time.Time                         { return time.Now() }
func (RealClock) Since(t time.Time) time.Duration        { return time.Since(t) }
func (RealClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

func (RealClock) Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// FakeClock is a manually-advanced Clock for tests. Time moves only when
// Advance is called; pending After/Sleep waiters whose deadlines are
// reached fire in deadline order.
type FakeClock struct {
	mu      sync.Mutex
	now     time.Time
	waiters []*fakeWaiter
}

type fakeWaiter struct {
	at time.Time
	ch chan time.Time
}

// NewFakeClock returns a FakeClock starting at start.
func NewFakeClock(start time.Time) *FakeClock {
	return &FakeClock{now: start}
}

func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *FakeClock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

func (c *FakeClock) After(d time.Duration) <-chan time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	ch := make(chan time.Time, 1)
	if d <= 0 {
		ch <- c.now
		return ch
	}
	c.waiters = append(c.waiters, &fakeWaiter{at: c.now.Add(d), ch: ch})
	return ch
}

func (c *FakeClock) Sleep(ctx context.Context, d time.Duration) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-c.After(d):
		return nil
	}
}

// Advance moves the clock forward by d and fires every waiter whose
// deadline has been reached, in deadline order.
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	sort.SliceStable(c.waiters, func(i, j int) bool { return c.waiters[i].at.Before(c.waiters[j].at) })
	kept := c.waiters[:0]
	for _, w := range c.waiters {
		if !w.at.After(c.now) {
			w.ch <- c.now
		} else {
			kept = append(kept, w)
		}
	}
	c.waiters = kept
}

// Waiters reports how many After/Sleep calls are currently pending — a
// race-free way for tests to wait until the code under test has
// registered its timer before calling Advance.
func (c *FakeClock) Waiters() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.waiters)
}
