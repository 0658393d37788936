package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"graphlocality/internal/gen"
	"graphlocality/internal/reorder"
	"graphlocality/internal/trace"
)

// MaxRequestBytes bounds a job request body. Requests are tiny JSON specs
// (the graphs are generated server-side), so anything near the limit is
// hostile or broken.
const MaxRequestBytes = 1 << 20

// JobKind selects what a job computes.
type JobKind string

const (
	// KindReorder runs a reordering algorithm and reports its cost and a
	// checksum of the permutation.
	KindReorder JobKind = "reorder"
	// KindSimulate runs the trace-based cache+TLB simulation of one pull
	// SpMV over the (optionally reordered) graph.
	KindSimulate JobKind = "simulate"
	// KindMetrics computes the cheap whole-graph locality metrics.
	KindMetrics JobKind = "metrics"
)

// GraphSpec describes the synthetic input graph of a job. Requests are
// self-contained: the server generates the graph from the spec, so
// identical specs dedup through the artifact store.
type GraphSpec struct {
	// Kind is the generator family: social, web, er, ba.
	Kind string `json:"kind"`
	// Scale is log2 of the vertex count.
	Scale int `json:"scale"`
	// EdgeFactor is edges per vertex (default 8).
	EdgeFactor int `json:"edgefac,omitempty"`
	// Seed drives the generator (default 42).
	Seed uint64 `json:"seed,omitempty"`
}

// JobRequest is the POST /v1/jobs body.
type JobRequest struct {
	Kind  JobKind   `json:"kind"`
	Graph GraphSpec `json:"graph"`
	// Tenant identifies the fair-scheduling bucket (default "anon").
	Tenant string `json:"tenant,omitempty"`
	// Alg is the reordering algorithm (reorder: required; simulate:
	// optional preprocessing step, default none).
	Alg string `json:"alg,omitempty"`
	// Direction is the simulated traversal direction: pull (default),
	// push, pushread.
	Direction string `json:"direction,omitempty"`
	// DeadlineMS bounds queue wait plus execution (0 = server default).
	DeadlineMS int `json:"deadline_ms,omitempty"`
	// Async makes POST return 202 with the job id immediately instead of
	// waiting for the result.
	Async bool `json:"async,omitempty"`
	// NoCache bypasses the artifact store for this job (always compute).
	NoCache bool `json:"no_cache,omitempty"`
}

// JobState is the lifecycle state of a job. Every admitted job reaches a
// terminal state (done, failed or canceled) — that is the invariant the
// chaos and drain suites assert.
type JobState string

const (
	// StateQueued: admitted, waiting for a worker.
	StateQueued JobState = "queued"
	// StateRunning: executing on a worker.
	StateRunning JobState = "running"
	// StateDone: terminal success; Result holds the payload.
	StateDone JobState = "done"
	// StateFailed: terminal typed failure (panic, bad algorithm, ...).
	StateFailed JobState = "failed"
	// StateCanceled: terminal cancellation (deadline, disconnect, drain).
	StateCanceled JobState = "canceled"
)

// Terminal reports whether s is a terminal state.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// JobResult is the kind-specific success payload.
type JobResult struct {
	// Common facts.
	Vertices uint32 `json:"vertices"`
	Edges    uint64 `json:"edges"`

	// Reorder facts.
	Algorithm string `json:"algorithm,omitempty"`
	// PermCRC32C is the Castagnoli checksum of the little-endian
	// permutation — a deterministic fingerprint that lets clients (and
	// the exactly-once chaos test) compare results without shipping the
	// whole permutation.
	PermCRC32C uint32 `json:"perm_crc32c,omitempty"`
	// ReorderMS is the preprocessing wall-clock (a measurement).
	ReorderMS float64 `json:"reorder_ms,omitempty"`

	// Simulate facts.
	Accesses   uint64  `json:"accesses,omitempty"`
	Misses     uint64  `json:"misses,omitempty"`
	MissRate   float64 `json:"miss_rate,omitempty"`
	Writebacks uint64  `json:"writebacks,omitempty"`
	TLBMisses  uint64  `json:"tlb_misses,omitempty"`

	// Metrics facts.
	MeanAID     float64 `json:"mean_aid,omitempty"`
	AverageGap  float64 `json:"average_gap,omitempty"`
	Reciprocity float64 `json:"reciprocity,omitempty"`
}

// JobStatus is the GET /v1/jobs/{id} (and sync POST) response body.
type JobStatus struct {
	ID     string   `json:"id"`
	Tenant string   `json:"tenant"`
	Kind   JobKind  `json:"kind"`
	State  JobState `json:"state"`
	// Cache is "hit" or "miss" for store-backed jobs, "" otherwise.
	Cache string `json:"cache,omitempty"`
	// Error is the typed failure/cancellation reason for terminal
	// non-done states.
	Error string `json:"error,omitempty"`
	// ElapsedMS is admission-to-terminal wall clock (a measurement).
	ElapsedMS float64    `json:"elapsed_ms,omitempty"`
	Result    *JobResult `json:"result,omitempty"`
}

// RequestError is a client error in the job request: the handler maps it
// to 400 and its message is safe to echo.
type RequestError struct{ msg string }

func (e *RequestError) Error() string { return e.msg }

func badRequestf(format string, args ...any) error {
	return &RequestError{msg: fmt.Sprintf(format, args...)}
}

// Admission errors, mapped to HTTP statuses by the handler.
var (
	// ErrQueueFull is load shedding: the admission queue is at capacity
	// (429, clients should back off and retry).
	ErrQueueFull = errors.New("serve: queue full, request shed")
	// ErrDraining means the server no longer admits jobs (503).
	ErrDraining = errors.New("serve: draining, not admitting jobs")
)

// Limits bound what a job may ask for, so one request cannot take down
// the process by sheer size.
type Limits struct {
	// MaxScale caps GraphSpec.Scale (default 16: 64Ki vertices).
	MaxScale int
	// MaxEdgeFactor caps GraphSpec.EdgeFactor (default 64).
	MaxEdgeFactor int
	// MaxDeadline caps a request's deadline (default 30s).
	MaxDeadline time.Duration
}

func (l Limits) withDefaults() Limits {
	if l.MaxScale <= 0 {
		l.MaxScale = 16
	}
	if l.MaxEdgeFactor <= 0 {
		l.MaxEdgeFactor = 64
	}
	if l.MaxDeadline <= 0 {
		l.MaxDeadline = 30 * time.Second
	}
	return l
}

// DecodeJobRequest decodes and validates one JSON job request from r.
// It never panics on any input: malformed bodies, wrong types, unknown
// fields, trailing garbage and out-of-range values all come back as a
// *RequestError (HTTP 400). The reader should already be length-capped
// (http.MaxBytesReader); the decoder additionally refuses to read past
// MaxRequestBytes so it is safe on raw readers too (fuzzing).
func DecodeJobRequest(r io.Reader, limits Limits) (JobRequest, error) {
	limits = limits.withDefaults()
	var req JobRequest
	dec := json.NewDecoder(io.LimitReader(r, MaxRequestBytes+1))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, badRequestf("invalid job request: %v", err)
	}
	// A second value after the request object is garbage, not a request.
	if dec.More() {
		return req, badRequestf("invalid job request: trailing data after JSON object")
	}
	return req, ValidateJobRequest(&req, limits)
}

// ValidateJobRequest range-checks req and fills defaults in place.
func ValidateJobRequest(req *JobRequest, limits Limits) error {
	limits = limits.withDefaults()
	switch req.Kind {
	case KindReorder, KindSimulate, KindMetrics:
	case "":
		return badRequestf("missing job kind (want reorder, simulate or metrics)")
	default:
		return badRequestf("unknown job kind %q (want reorder, simulate or metrics)", req.Kind)
	}
	switch {
	case req.Graph.Kind == "":
		return badRequestf("missing graph.kind (want %s)", gen.KindList())
	case !slices.Contains(gen.Kinds, req.Graph.Kind):
		return badRequestf("unknown graph.kind %q (want %s)", req.Graph.Kind, gen.KindList())
	}
	if req.Graph.Scale < 1 || req.Graph.Scale > limits.MaxScale {
		return badRequestf("graph.scale %d out of range [1, %d]", req.Graph.Scale, limits.MaxScale)
	}
	if req.Graph.EdgeFactor == 0 {
		req.Graph.EdgeFactor = 8
	}
	if req.Graph.EdgeFactor < 1 || req.Graph.EdgeFactor > limits.MaxEdgeFactor {
		return badRequestf("graph.edgefac %d out of range [1, %d]", req.Graph.EdgeFactor, limits.MaxEdgeFactor)
	}
	if req.Graph.Seed == 0 {
		req.Graph.Seed = 42
	}
	if req.Tenant == "" {
		req.Tenant = "anon"
	}
	if len(req.Tenant) > 64 {
		return badRequestf("tenant name longer than 64 bytes")
	}
	for _, r := range req.Tenant {
		if (r < 'a' || r > 'z') && (r < 'A' || r > 'Z') && (r < '0' || r > '9') &&
			r != '-' && r != '_' && r != '.' {
			return badRequestf("tenant name contains %q (want [a-zA-Z0-9._-])", r)
		}
	}
	switch req.Kind {
	case KindReorder:
		if req.Alg == "" {
			return badRequestf("reorder jobs require alg (one of: %s)", strings.Join(reorder.List(), ", "))
		}
	case KindMetrics:
		if req.Alg != "" {
			return badRequestf("metrics jobs do not take alg")
		}
	}
	if req.Alg != "" {
		// Alg is a full spec ("ro", "go:window=7", "brew:detect=lp"):
		// built here so execution cannot fail on a bad algorithm, and
		// replaced by the algorithm's Spec() so equivalent specs dedup to
		// one artifact under the same identity expt checkpoints use.
		alg, err := reorder.New(req.Alg)
		if err != nil {
			return badRequestf("%v", err)
		}
		req.Alg = alg.Spec()
	}
	if req.Direction != "" {
		if req.Kind != KindSimulate {
			return badRequestf("direction only applies to simulate jobs")
		}
		if _, err := trace.ParseDirection(req.Direction); err != nil {
			return badRequestf("%v", err)
		}
	}
	if req.DeadlineMS < 0 {
		return badRequestf("deadline_ms must be >= 0")
	}
	if d := time.Duration(req.DeadlineMS) * time.Millisecond; d > limits.MaxDeadline {
		return badRequestf("deadline_ms %d exceeds the server cap %v", req.DeadlineMS, limits.MaxDeadline)
	}
	return nil
}

// ArtifactKey returns the content-addressed artifact name of a job spec:
// two requests asking for the same computation map to the same key, which
// is what lets GetOrCompute dedup them across workers and processes. The
// key covers every result-determining field and none of the scheduling
// fields (tenant, deadline, async).
func (r JobRequest) ArtifactKey() string {
	dir := r.Direction
	if dir == "" {
		dir = "pull"
	}
	return fmt.Sprintf("job_%s_%s-s%d-e%d-x%d_%s_%s.res",
		r.Kind, r.Graph.Kind, r.Graph.Scale, r.Graph.EdgeFactor, r.Graph.Seed,
		sanitizeKey(r.Alg), dir)
}

// sanitizeKey makes an algorithm name safe inside an artifact file name
// ("sb++" -> "sb__", "ro+go" -> "ro_go").
func sanitizeKey(s string) string {
	if s == "" {
		return "none"
	}
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '.':
			return r
		default:
			return '_'
		}
	}, s)
}
