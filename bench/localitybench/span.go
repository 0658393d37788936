package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around the public function it calls. An op's root span has Parent
// 0 and its own ID as Op; every span below it shares that Op.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced phase runs the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (0 opens a new op) and returns its id,
// or 0 on a nil tracer.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	op := id
	if parent > 0 {
		op = t.spans[parent-1].Op
	}
	t.spans = append(t.spans, span{ID: id, Name: name, Op: op, Parent: parent, Start: now})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// call runs f inside a span named name under parent.
func (t *tracer) call(name string, parent int, f func()) {
	id := t.begin(name, parent)
	f()
	t.end(id)
}

// snapshot returns the spans recorded so far; span i has ID i+1.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeFile writes the spans as one JSON array.
func (t *tracer) writeFile(path string) error {
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part its direct children cover.
func selfTimes(spans []span) map[string]time.Duration {
	child := make([]time.Duration, len(spans)+1)
	for _, s := range spans {
		if s.Parent > 0 {
			child[s.Parent] += s.dur()
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range spans {
		self[s.Name] += s.dur() - child[s.ID]
	}
	return self
}

// durationsByRoot groups the durations of the spans named name by the
// name of their op's root span.
func durationsByRoot(spans []span, name string) map[string][]time.Duration {
	out := make(map[string][]time.Duration)
	for _, s := range spans {
		if s.Name == name {
			root := spans[s.Op-1].Name
			out[root] = append(out[root], s.dur())
		}
	}
	return out
}
