package reorder

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"graphlocality/internal/gen"
	"graphlocality/internal/graph"
	"graphlocality/internal/runctl"
)

// checkPerm fails unless p is a bijection on [0, n) — the invariant every
// algorithm must uphold even when cancelled mid-run.
func checkPerm(t *testing.T, p graph.Permutation, n uint32) {
	t.Helper()
	if uint32(len(p)) != n {
		t.Fatalf("permutation length %d, want %d", len(p), n)
	}
	seen := make([]bool, n)
	for old, nw := range p {
		if nw >= n || seen[nw] {
			t.Fatalf("not a permutation at index %d (value %d)", old, nw)
		}
		seen[nw] = true
	}
}

// TestCancellationMidRun checks the three heavyweight algorithms honour a
// pre-cancelled context: they return quickly (within one poll interval of
// work), report ErrCanceled, and still hand back a valid permutation.
func TestCancellationMidRun(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 8, 3))
	n := g.NumVertices()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the first poll must observe the dead context

	algs := []Algorithm{
		&SlashBurn{KFraction: 0.02, PollEvery: 4},
		&GOrder{Window: 5, PollEvery: 4},
		&RabbitOrder{PollEvery: 4},
	}
	for _, alg := range algs {
		t.Run(alg.Name(), func(t *testing.T) {
			perm, err := alg.Reorder(ctx, g)
			if !errors.Is(err, runctl.ErrCanceled) {
				t.Fatalf("want ErrCanceled, got %v", err)
			}
			checkPerm(t, perm, n)
		})
	}
}

// TestContextAlgorithmsCompleteUncancelled checks the ctx-aware paths agree
// with the plain Reorder path when nothing cancels.
func TestContextAlgorithmsCompleteUncancelled(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(8, 8, 3))
	n := g.NumVertices()
	algs := []Algorithm{
		MustNew("sb"),
		MustNew("go"),
		MustNew("ro"),
	}
	for _, alg := range algs {
		t.Run(alg.Name(), func(t *testing.T) {
			perm, err := alg.Reorder(context.Background(), g)
			if err != nil {
				t.Fatalf("Reorder: %v", err)
			}
			checkPerm(t, perm, n)
		})
	}
}

// TestRunContextCancelled checks the measurement wrapper surfaces the
// cancellation error alongside the partial result.
func TestRunContextCancelled(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(9, 8, 3))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunContext(ctx, &GOrder{Window: 5, PollEvery: 4}, g)
	if !errors.Is(err, runctl.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	checkPerm(t, res.Perm, g.NumVertices())
}

// doneCounter is a live context that counts the calls to its Done method:
// one per poll of a runctl.Poller.
type doneCounter struct {
	context.Context
	calls atomic.Int64
}

func (c *doneCounter) Done() <-chan struct{} {
	c.calls.Add(1)
	return c.Context.Done()
}

// TestDefaultPollInterval checks that PollEvery 0 polls every
// runctl.DefaultPollInterval steps, as the fields document, and not every
// step: each run makes exactly steps/DefaultPollInterval polls, where
// steps is the poll count of the same run at PollEvery 1.
func TestDefaultPollInterval(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(13, 8, 3))
	runs := map[string]func(ctx context.Context, every int) error{
		"sb": func(ctx context.Context, every int) error {
			_, err := (&SlashBurn{KFraction: 0.02, PollEvery: every}).Reorder(ctx, g)
			return err
		},
		"ro": func(ctx context.Context, every int) error {
			_, err := (&RabbitOrder{PollEvery: every}).Reorder(ctx, g)
			return err
		},
		"louvain": func(ctx context.Context, every int) error {
			_, err := DetectLouvain(ctx, g, 1, 1, every)
			return err
		},
		"lp": func(ctx context.Context, every int) error {
			_, err := DetectLabelProp(ctx, g, 1, every)
			return err
		},
		"brew": func(ctx context.Context, every int) error {
			_, err := (&Brew{Hub: "dbg", Dense: "dbg", Else: "dbg", PollEvery: every}).Reorder(ctx, g)
			return err
		},
	}
	for name, run := range runs {
		polls := func(every int) int64 {
			ctx := &doneCounter{Context: context.Background()}
			if err := run(ctx, every); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return ctx.calls.Load()
		}
		steps, got := polls(1), polls(0)
		if steps < runctl.DefaultPollInterval {
			t.Fatalf("%s: only %d steps; the graph is too small to show the interval", name, steps)
		}
		if want := steps / runctl.DefaultPollInterval; got != want {
			t.Errorf("%s: PollEvery 0 polled %d times over %d steps, want %d", name, got, steps, want)
		}
	}
}
