// Package perf is the benchmark-regression harness: it times the
// simulation stack's hot paths (micro: cachesim and trace; macro: full
// SimulateSpMV runs over experiment-grid workloads; GOrder over the
// pipeline's heavy shapes), serializes the measurements as a JSON report,
// and diffs two reports with a tolerance so CI can fail on a performance
// regression. The macro pass times the batched
// fast path against the scalar reference and records their speedups — the
// diff guards those against erosion as well, because a "faster baseline"
// regression (the batched path silently degrading to scalar performance)
// does not show up in wall-clock noise gates alone.
package perf

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// SchemaVersion identifies the report layout; Diff refuses to compare
// reports with mismatched schemas.
const SchemaVersion = 1

// Benchmark is one timed workload.
type Benchmark struct {
	Name string `json:"name"`
	// Iters is the number of timing repetitions taken (NsPerOp is their
	// minimum — the least-noise estimator on a shared machine).
	Iters int `json:"iters"`
	// NsPerOp is the best-case wall-clock nanoseconds for one operation.
	NsPerOp float64 `json:"ns_per_op"`
}

// SpeedupEntry records a derived batched-vs-scalar ratio for one workload.
// Ratios are far more stable across machines than absolute times, so the
// regression gate holds them to the same tolerance as a cross-machine
// comparison of NsPerOp would fail spuriously.
type SpeedupEntry struct {
	Name string `json:"name"`
	// Speedup is scalar time / batched time; > 1 means the fast path wins.
	Speedup float64 `json:"speedup"`
}

// Report is one serialized benchmark run.
type Report struct {
	Schema     int            `json:"schema"`
	Suite      string         `json:"suite"`
	GoMaxProcs int            `json:"gomaxprocs"`
	Benchmarks []Benchmark    `json:"benchmarks"`
	Speedups   []SpeedupEntry `json:"speedups,omitempty"`
}

// Add appends a benchmark measurement.
func (r *Report) Add(name string, iters int, nsPerOp float64) {
	r.Benchmarks = append(r.Benchmarks, Benchmark{Name: name, Iters: iters, NsPerOp: nsPerOp})
}

// AddSpeedup appends a derived speedup entry.
func (r *Report) AddSpeedup(name string, speedup float64) {
	r.Speedups = append(r.Speedups, SpeedupEntry{Name: name, Speedup: speedup})
}

// Find returns the named benchmark.
func (r *Report) Find(name string) (Benchmark, bool) {
	for _, b := range r.Benchmarks {
		if b.Name == name {
			return b, true
		}
	}
	return Benchmark{}, false
}

// FindSpeedup returns the named speedup entry.
func (r *Report) FindSpeedup(name string) (SpeedupEntry, bool) {
	for _, s := range r.Speedups {
		if s.Name == name {
			return s, true
		}
	}
	return SpeedupEntry{}, false
}

// MinSpeedup returns the smallest recorded speedup (0 when none).
func (r *Report) MinSpeedup() float64 {
	min := 0.0
	for i, s := range r.Speedups {
		if i == 0 || s.Speedup < min {
			min = s.Speedup
		}
	}
	return min
}

// WriteFile atomically-enough writes the report as indented JSON (write is
// a single O_TRUNC create; bench artifacts are regenerated, not recovered).
func WriteFile(path string, r Report) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadFile loads a report written by WriteFile.
func ReadFile(path string) (Report, error) {
	var r Report
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("perf: parse %s: %w", path, err)
	}
	return r, nil
}

// RegressionKind classifies what a Diff finding violated.
type RegressionKind string

const (
	// TimeRegression: a benchmark's NsPerOp grew beyond tolerance.
	TimeRegression RegressionKind = "time"
	// SpeedupErosion: a recorded batched-vs-scalar speedup shrank beyond
	// tolerance.
	SpeedupErosion RegressionKind = "speedup"
	// MissingBenchmark: a baseline measurement disappeared from the
	// current report — dropped coverage must not pass the gate silently.
	MissingBenchmark RegressionKind = "missing"
)

// Regression is one tolerance violation found by Diff.
type Regression struct {
	Kind RegressionKind `json:"kind"`
	Name string         `json:"name"`
	Old  float64        `json:"old"`
	New  float64        `json:"new"`
	// Ratio is new/old for time (bigger = worse) and old/new for speedups
	// (bigger = worse), so any Ratio > tolerance reads as a violation.
	Ratio float64 `json:"ratio"`
}

func (r Regression) String() string {
	switch r.Kind {
	case TimeRegression:
		return fmt.Sprintf("time regression %s: %.0f ns/op -> %.0f ns/op (%.2fx > tolerance)",
			r.Name, r.Old, r.New, r.Ratio)
	case SpeedupErosion:
		return fmt.Sprintf("speedup erosion %s: %.2fx -> %.2fx (%.2fx shrink > tolerance)",
			r.Name, r.Old, r.New, r.Ratio)
	default:
		return fmt.Sprintf("benchmark %s present in baseline but missing from current report", r.Name)
	}
}

// Diff compares current against baseline under a multiplicative tolerance
// (e.g. 1.5 = current may be up to 1.5x slower before it counts as a
// regression; must be >= 1). It returns the violations sorted worst-first;
// an empty slice means the gate passes. Benchmarks present only in current
// are new coverage and never violations.
func Diff(baseline, current Report, tolerance float64) ([]Regression, error) {
	if tolerance < 1 {
		return nil, fmt.Errorf("perf: tolerance %.2f must be >= 1", tolerance)
	}
	if baseline.Schema != current.Schema {
		return nil, fmt.Errorf("perf: schema mismatch: baseline v%d vs current v%d",
			baseline.Schema, current.Schema)
	}
	var out []Regression
	for _, b := range baseline.Benchmarks {
		cur, ok := current.Find(b.Name)
		if !ok {
			out = append(out, Regression{Kind: MissingBenchmark, Name: b.Name, Old: b.NsPerOp})
			continue
		}
		if b.NsPerOp <= 0 {
			continue
		}
		ratio := cur.NsPerOp / b.NsPerOp
		if ratio > tolerance {
			out = append(out, Regression{Kind: TimeRegression, Name: b.Name,
				Old: b.NsPerOp, New: cur.NsPerOp, Ratio: ratio})
		}
	}
	for _, s := range baseline.Speedups {
		cur, ok := current.FindSpeedup(s.Name)
		if !ok {
			out = append(out, Regression{Kind: MissingBenchmark, Name: s.Name, Old: s.Speedup})
			continue
		}
		if cur.Speedup <= 0 {
			continue
		}
		ratio := s.Speedup / cur.Speedup
		if ratio > tolerance {
			out = append(out, Regression{Kind: SpeedupErosion, Name: s.Name,
				Old: s.Speedup, New: cur.Speedup, Ratio: ratio})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			// Missing benchmarks (Ratio 0) sort after real slowdowns.
			return out[i].Kind != MissingBenchmark && out[j].Kind == MissingBenchmark
		}
		if out[i].Ratio != out[j].Ratio {
			return out[i].Ratio > out[j].Ratio
		}
		return out[i].Name < out[j].Name
	})
	return out, nil
}
