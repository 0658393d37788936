package graphlocality_test

import (
	"path/filepath"
	"testing"

	"graphlocality/internal/perf"
)

// TestCommittedBenchReports holds every committed BENCH_*.json to the one
// report format: each must load as a perf.Report of the current schema
// with at least one benchmark, so `bench diff` can gate any of them.
func TestCommittedBenchReports(t *testing.T) {
	paths, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no BENCH_*.json reports found")
	}
	for _, path := range paths {
		r, err := perf.ReadFile(path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if r.Schema != perf.SchemaVersion {
			t.Errorf("%s: schema %d, want %d", path, r.Schema, perf.SchemaVersion)
		}
		if len(r.Benchmarks) == 0 {
			t.Errorf("%s: no benchmarks", path)
		}
	}
}
