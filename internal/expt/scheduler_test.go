package expt

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphlocality/internal/graph"
	"graphlocality/internal/reorder"
	"graphlocality/internal/runctl"
)

// TestMemoDoUnlessConcurrent checks memo.DoUnless under concurrent
// callers of one key: a discarded value is never kept, and the first kept
// value is computed once and shared from then on.
func TestMemoDoUnlessConcurrent(t *testing.T) {
	var m memo[int]
	var calls atomic.Int32
	compute := func() int { return int(calls.Add(1)) }
	discardFirst := func(v int) bool { return v == 1 }
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.DoUnless("k", compute, discardFirst)
		}()
	}
	wg.Wait()
	kept := m.DoUnless("k", compute, discardFirst)
	if kept == 1 {
		t.Fatal("the discarded first value was kept")
	}
	n := calls.Load()
	if again := m.DoUnless("k", compute, discardFirst); again != kept || calls.Load() != n {
		t.Errorf("kept value %d recomputed: got %d after %d calls, now %d", kept, again, n, calls.Load())
	}
}

func TestMapIndexedOrderAndCoverage(t *testing.T) {
	for _, p := range []int{0, 1, 2, 8, 33} {
		got := mapIndexed(p, 100, func(i int) int { return i * i })
		if len(got) != 100 {
			t.Fatalf("parallel=%d: len = %d, want 100", p, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("parallel=%d: out[%d] = %d, want %d", p, i, v, i*i)
			}
		}
	}
	if got := mapIndexed(4, 0, func(i int) int { return i }); len(got) != 0 {
		t.Errorf("n=0: len = %d, want 0", len(got))
	}
}

// TestMapIndexedRunsConcurrently holds every cell at a barrier that only
// opens once all of them have started: the test hangs (and times out) if the
// scheduler does not actually run them concurrently.
func TestMapIndexedRunsConcurrently(t *testing.T) {
	const n = 4
	var barrier sync.WaitGroup
	barrier.Add(n)
	mapIndexed(n, n, func(i int) int {
		barrier.Done()
		barrier.Wait()
		return i
	})
}

func TestGridRowMajor(t *testing.T) {
	ds := Suite(Tiny)
	algs := StandardAlgorithms()
	cells := grid(ds, algs)
	if len(cells) != len(ds)*len(algs) {
		t.Fatalf("grid size %d, want %d", len(cells), len(ds)*len(algs))
	}
	for i, c := range cells {
		if c.di != i/len(algs) || c.ai != i%len(algs) {
			t.Fatalf("cell %d has position (%d,%d), want (%d,%d)", i, c.di, c.ai, i/len(algs), i%len(algs))
		}
		if c.ds.Name != ds[c.di].Name || c.alg.Name() != algs[c.ai].Name() {
			t.Fatalf("cell %d carries wrong pair %s/%s", i, c.ds.Name, c.alg.Name())
		}
	}
}

// TestParallelSessionMatchesSerial is the acceptance stress test: a
// Parallel=8 session must produce byte-identical text and CSV files to a
// serial session for every registry entry without wall-clock cells
// (Elapsed is inherently non-reproducible).
// Run it at several GOMAXPROCS values (go test -cpu 1,2,8): the parallel
// session's worker count follows the runtime, and no output may.
func TestParallelSessionMatchesSerial(t *testing.T) {
	serial, ds := tinySession()
	par, _ := tinySession()
	par.Parallel = 8
	algs := StandardAlgorithms()
	for _, e := range Experiments {
		if e.WallClock {
			continue
		}
		want, err := e.Run(serial, ds, algs)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		got, err := e.Run(par, ds, algs)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: parallel output diverges from serial\n--- serial ---\n%s\n--- parallel ---\n%s", e.ID, want.Text, got.Text)
		}
	}
	if len(serial.DegradedStages()) != 0 || len(par.DegradedStages()) != 0 {
		t.Fatalf("unexpected degraded stages: serial=%v parallel=%v",
			serial.DegradedStages(), par.DegradedStages())
	}
}

// allocSink keeps allocHeavy's allocation from being optimized away.
var allocSink []byte

// allocLean and allocHeavy are a Table II pair built to overlap when run
// concurrently: allocLean starts, then waits (at most a second) until
// allocHeavy has allocated 64 MB, and allocHeavy waits (at most a second)
// for allocLean to start before allocating. Run one after the other, only
// the first to run waits, and nothing overlaps.
type allocLean struct{ started, heavyDone chan struct{} }

func (allocLean) Name() string { return "lean" }
func (allocLean) Spec() string { return "lean" }

func (a allocLean) Reorder(_ context.Context, g *graph.Graph) (graph.Permutation, error) {
	close(a.started)
	select {
	case <-a.heavyDone:
	case <-time.After(time.Second):
	}
	return graph.Identity(g.NumVertices()), nil
}

type allocHeavy struct{ leanStarted, done chan struct{} }

func (allocHeavy) Name() string { return "heavy" }
func (allocHeavy) Spec() string { return "heavy" }

func (a allocHeavy) Reorder(_ context.Context, g *graph.Graph) (graph.Permutation, error) {
	select {
	case <-a.leanStarted:
	case <-time.After(time.Second):
	}
	allocSink = make([]byte, 64<<20)
	allocSink = nil
	close(a.done)
	return graph.Identity(g.NumVertices()), nil
}

// TestTableIIMeasuresWithoutContention runs Table II in a parallel session
// next to an algorithm that allocates 64 MB. AllocBytes is a process-wide
// allocation delta, so the lean algorithm's row reports the heavy one's
// allocation too unless the table measures its cells one at a time.
func TestTableIIMeasuresWithoutContention(t *testing.T) {
	s, ds := tinySession()
	s.Parallel = 8
	started, heavyDone := make(chan struct{}), make(chan struct{})
	algs := []reorder.Algorithm{allocLean{started, heavyDone}, allocHeavy{started, heavyDone}}
	rows := TableII(s, ds[:1], algs)
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	lean, heavy := rows[0], rows[1]
	if heavy.AllocBytes < 64<<20 {
		t.Errorf("heavy row reports %d bytes, want at least 64 MB", heavy.AllocBytes)
	}
	if lean.AllocBytes >= 1<<20 {
		t.Errorf("lean row reports %.1f MB: its measurement includes the concurrent heavy cell", float64(lean.AllocBytes)/(1<<20))
	}
}

// cancelAfterPeer cancels the run's context from inside its own reorder
// stage, but only after a peer cell's write-through checkpoint has landed on
// disk — so the test deterministically has both a completed-and-checkpointed
// cell and cells that see a dead context.
type cancelAfterPeer struct {
	dir      string
	peerDS   string
	peerAlg  string
	vertices uint32
	cancel   context.CancelFunc
}

func (cancelAfterPeer) Name() string { return "cancelpeer" }
func (cancelAfterPeer) Spec() string { return "cancelpeer" }

func (c cancelAfterPeer) Reorder(_ context.Context, g *graph.Graph) (graph.Permutation, error) {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := LoadPermCheckpoint(nil, c.dir, c.peerDS, c.peerAlg, c.vertices); err == nil {
			break
		}
		time.Sleep(time.Millisecond)
	}
	c.cancel()
	return graph.Identity(g.NumVertices()), nil
}

// waitForCancel is a context-first algorithm that blocks until the run is
// canceled and then reports the context error: its cells deterministically
// observe a mid-grid cancellation.
type waitForCancel struct{}

func (waitForCancel) Name() string { return "waitcancel" }
func (waitForCancel) Spec() string { return "waitcancel" }

func (waitForCancel) Reorder(ctx context.Context, g *graph.Graph) (graph.Permutation, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestCancellationMidGridLeavesValidCheckpoints cancels the run from inside
// one grid cell while others are in flight. The grid is Table V's, whose
// cells reorder, relabel and simulate under the parallel scheduler. Cells that completed before the
// cancellation must have validating write-through checkpoints; cells cut off
// by it must be degraded with a cancellation reason, never half-written.
func TestCancellationMidGridLeavesValidCheckpoints(t *testing.T) {
	dir := t.TempDir()
	s, ds := tinySession()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Ctrl = runctl.New(ctx, runctl.Config{})
	s.CacheDir = dir
	s.Parallel = 4

	peer := reorder.DegreeSort{}
	trigger := cancelAfterPeer{
		dir:      dir,
		peerDS:   ds[0].Name,
		peerAlg:  peer.Spec(),
		vertices: uint32(s.Graph(ds[0]).NumVertices()),
		cancel:   cancel,
	}
	algs := []reorder.Algorithm{peer, trigger, waitForCancel{}}

	rows := TableV(s, ds, algs)
	if want := len(ds) * len(algs); len(rows) != want {
		t.Fatalf("got %d rows, want %d — cancellation must not drop rows", len(rows), want)
	}
	if !s.Canceled() {
		t.Fatal("session does not report cancellation")
	}

	var completed, degraded int
	for _, d := range ds {
		for _, alg := range algs {
			if _, isDegraded := s.Degraded(d, alg); isDegraded {
				degraded++
				continue
			}
			completed++
			// Every completed cell left a validating checkpoint.
			n := s.Graph(d).NumVertices()
			got, err := LoadPermCheckpoint(nil, dir, d.Name, alg.Spec(), n)
			if err != nil {
				t.Errorf("%s/%s completed but checkpoint invalid: %v", d.Name, alg.Name(), err)
				continue
			}
			want := s.Reorder(d, alg)
			for i := range want.Perm {
				if got.Perm[i] != want.Perm[i] {
					t.Errorf("%s/%s: checkpoint perm differs at %d", d.Name, alg.Name(), i)
					break
				}
			}
		}
	}
	// The ds[0] peer cell is guaranteed to finish (and checkpoint) before
	// the trigger cancels, and every waitForCancel cell is guaranteed to
	// observe the dead context.
	if completed == 0 {
		t.Error("no cell completed before cancellation")
	}
	if degraded == 0 {
		t.Error("no cell observed the cancellation")
	}
	if _, ok := s.Degraded(ds[0], peer); ok {
		t.Error("the checkpointed peer cell must not be degraded")
	}
	for _, d := range ds {
		reason, ok := s.Degraded(d, waitForCancel{})
		if !ok {
			t.Errorf("%s/waitcancel not degraded despite blocking on ctx.Done", d.Name)
		} else if !strings.Contains(reason, "cancel") && !strings.Contains(reason, "deadline") {
			t.Errorf("%s/waitcancel degraded for reason %q, want a cancellation", d.Name, reason)
		}
	}
}
