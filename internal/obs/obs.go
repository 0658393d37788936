// Package obs is the observability layer of the experiment pipeline:
// cheap metric primitives (counters, gauges, histograms), span-style stage
// tracing, and a JSON run manifest that makes every run machine-readable
// and two runs diffable.
//
// Design rules (see DESIGN.md §10):
//
//   - Every primitive is nil-safe: a nil *Registry hands out nil
//     *Counter/*Gauge/*Histogram/*Span pointers whose methods are
//     single-branch no-ops. Every layer takes a *Registry and nil means
//     "off". Hot loops hoist the pointer once and pay one predictable
//     branch per event when observability is off — no allocation, no
//     interface call, no atomic.
//   - Counters and span events/bytes record *deterministic facts* (accesses
//     simulated, permutation sizes, cells scheduled). Gauges, histograms
//     (except their counts) and wall-clock fields record *measurements*.
//     Manifest.Normalized clears the measurements, so two manifests of the
//     same workload compare byte-identical regardless of -parallel level,
//     machine speed or scheduling order.
//   - All mutation is atomic, so concurrent grid cells can fold their
//     per-stage totals into one shared Registry; sums of deterministic
//     per-cell facts are order-independent, which is what keeps manifests
//     deterministic under the parallel scheduler.
//
// The package depends only on the standard library so every layer of the
// repo (runctl, reorder, trace, cachesim, spmv, core, expt, cmd) can use
// it without cycles.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing, concurrency-safe counter. The nil
// *Counter is a valid no-op: every method checks the receiver first, so
// call sites never need to know whether observability is enabled.
type Counter struct {
	n atomic.Uint64
}

// Add increments the counter by d. No-op on a nil receiver.
func (c *Counter) Add(d uint64) {
	if c != nil {
		c.n.Add(d)
	}
}

// Inc increments the counter by one. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// Gauge is a last-value-wins float metric (worker counts, speedups,
// per-run measurements). Gauges are treated as measurements: Normalized
// manifests drop them. The nil *Gauge is a valid no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. No-op on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the last stored value (0 on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram accumulates observations (stage latencies, steal counts).
// Count is a deterministic fact (how many observations happened); Sum,
// Min and Max are measurements and are cleared by Manifest.Normalized.
// The nil *Histogram is a valid no-op.
type Histogram struct {
	mu    sync.Mutex
	count uint64
	sum   float64
	min   float64
	max   float64
}

// Observe records one value. No-op on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.mu.Unlock()
}

// Snapshot returns the histogram's current summary (zero on nil).
func (h *Histogram) Snapshot() HistogramRecord {
	if h == nil {
		return HistogramRecord{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistogramRecord{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
}

// Registry hands out named metric primitives with atomic mutation, safe
// for concurrent use, snapshotted into a Manifest at end of run. The nil
// *Registry is the disabled recorder: it hands out nil primitives, whose
// methods do nothing. Call sites hoist primitives out of hot loops:
//
//	c := reg.Counter("sim.accesses")
//	for ... { ... }        // hot loop untouched
//	c.Add(localCount)      // fold once at the end
type Registry struct {
	mu     sync.Mutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
	spans  map[string]*Span
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
		spans:  make(map[string]*Span),
	}
}

// Counter returns the named counter, creating it on first use (nil on a
// nil receiver).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counts[name]
	if !ok {
		c = &Counter{}
		r.counts[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use (nil on a
// nil receiver).
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use (nil on a
// nil receiver).
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Span returns the named span, creating it on first use (nil on a nil
// receiver). Spans with the same name merge: calls/events/bytes/wall
// accumulate.
func (r *Registry) Span(name string) *Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.spans[name]
	if !ok {
		s = &Span{name: name}
		r.spans[name] = s
	}
	return s
}

// spanNames returns the registered span names sorted — the deterministic
// assembly order of the manifest regardless of which goroutine created
// which span first.
func (r *Registry) spanNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.spans))
	for n := range r.spans {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Span is one named stage of the pipeline. Spans nest by name convention:
// "reorder/TwtrS/GO" is the reorder stage of dataset TwtrS under algorithm
// GO, and renderers group on the "/"-separated path. Two recordings under
// the same name merge by accumulation, which is commutative — span
// contents are independent of completion order under the parallel
// scheduler. The nil *Span is a valid no-op.
type Span struct {
	name   string
	calls  atomic.Uint64
	events atomic.Uint64
	bytes  atomic.Uint64
	wallNS atomic.Int64
}

// Done records one completed call that started at start, folding the
// elapsed wall-clock into the span. No-op on a nil receiver.
func (s *Span) Done(start time.Time) {
	if s == nil {
		return
	}
	s.calls.Add(1)
	s.wallNS.Add(int64(time.Since(start)))
}

// AddEvents folds n processed events (simulated accesses, permuted
// vertices, scheduled cells) into the span. Events must be deterministic
// facts of the workload. No-op on a nil receiver.
func (s *Span) AddEvents(n uint64) {
	if s != nil {
		s.events.Add(n)
	}
}

// AddBytes folds n touched bytes into the span. Bytes must be
// deterministic facts of the workload (access sizes, array footprints) —
// never allocator measurements. No-op on a nil receiver.
func (s *Span) AddBytes(n uint64) {
	if s != nil {
		s.bytes.Add(n)
	}
}

// Record returns the span's current contents (zero on nil).
func (s *Span) Record() SpanRecord {
	if s == nil {
		return SpanRecord{}
	}
	return SpanRecord{
		Name:   s.name,
		Calls:  s.calls.Load(),
		Events: s.events.Load(),
		Bytes:  s.bytes.Load(),
		WallMS: float64(s.wallNS.Load()) / 1e6,
	}
}
