package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilPrimitivesAreNoOps(t *testing.T) {
	var c *Counter
	c.Add(5)
	c.Inc()
	if c.Value() != 0 {
		t.Error("nil counter has a value")
	}
	var g *Gauge
	g.Set(3.5)
	if g.Value() != 0 {
		t.Error("nil gauge has a value")
	}
	var h *Histogram
	h.Observe(1)
	if h.Snapshot() != (HistogramRecord{}) {
		t.Error("nil histogram has content")
	}
	var s *Span
	s.Done(time.Now())
	s.AddEvents(3)
	s.AddBytes(4)
	if s.Record() != (SpanRecord{}) {
		t.Error("nil span has content")
	}
}

// TestNopRecorderHandsOutNils checks the nil *Registry is the no-op
// recorder: it hands out nil primitives, whose methods do nothing.
func TestNopRecorderHandsOutNils(t *testing.T) {
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil ||
		r.Histogram("x") != nil || r.Span("x") != nil {
		t.Error("nil registry returned a non-nil primitive")
	}
	r.Counter("x").Inc()
	r.Span("x").Done(time.Now())
}

func TestRegistryPrimitives(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(2)
	r.Counter("a").Inc()
	if got := r.Counter("a").Value(); got != 3 {
		t.Errorf("counter = %d, want 3", got)
	}
	r.Gauge("g").Set(1.5)
	if got := r.Gauge("g").Value(); got != 1.5 {
		t.Errorf("gauge = %g, want 1.5", got)
	}
	r.Histogram("h").Observe(2)
	r.Histogram("h").Observe(8)
	if got := r.Histogram("h").Snapshot(); got.Count != 2 || got.Sum != 10 || got.Min != 2 || got.Max != 8 {
		t.Errorf("histogram = %+v", got)
	}
	sp := r.Span("stage/x")
	sp.AddEvents(7)
	sp.AddBytes(64)
	sp.Done(time.Now().Add(-time.Millisecond))
	rec := sp.Record()
	if rec.Name != "stage/x" || rec.Calls != 1 || rec.Events != 7 || rec.Bytes != 64 {
		t.Errorf("span record = %+v", rec)
	}
	if rec.WallMS <= 0 {
		t.Errorf("span wall = %g, want > 0", rec.WallMS)
	}
}

// TestConcurrentFoldsAreDeterministic is the scheduler-determinism
// property in miniature: N goroutines folding fixed per-cell facts in a
// random order must produce the same totals as a serial fold.
func TestConcurrentFoldsAreDeterministic(t *testing.T) {
	const workers, perWorker = 16, 100
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Counter("cells").Inc()
				sp := r.Span("sim/ds/alg")
				sp.AddEvents(10)
				sp.AddBytes(100)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("cells").Value(); got != workers*perWorker {
		t.Errorf("cells = %d, want %d", got, workers*perWorker)
	}
	rec := r.Span("sim/ds/alg").Record()
	if rec.Events != workers*perWorker*10 || rec.Bytes != workers*perWorker*100 {
		t.Errorf("span folds = %+v", rec)
	}
}

func TestManifestRender(t *testing.T) {
	r := NewRegistry()
	r.Counter("sim.accesses").Add(42)
	r.Gauge("speedup").Set(2)
	r.Histogram("ms").Observe(5)
	r.Span("reorder/TwtrT/GO").AddEvents(9)
	r.Span("reorder/TwtrT/SB").AddEvents(9)
	m := r.Manifest(Meta{Tool: "localitylab", Command: "experiment table2", Parallel: 4, GoMaxProcs: 8})
	var b strings.Builder
	if err := m.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"experiment table2", "sim.accesses", "42", "reorder/TwtrT/GO", "speedup"} {
		if !strings.Contains(out, want) {
			t.Errorf("render lacks %q:\n%s", want, out)
		}
	}
}
