package main

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"graphlocality/internal/obs"
)

// runExperimentQuiet invokes cmdExperiment with stdout redirected to
// /dev/null — the tables themselves are not under test here.
func runExperimentQuiet(t *testing.T, args []string) {
	t.Helper()
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	old := os.Stdout
	os.Stdout = devnull
	defer func() { os.Stdout = old }()
	if err := cmdExperiment(args); err != nil {
		t.Fatalf("experiment %v: %v", args, err)
	}
}

// manifestFor runs one tiny experiment at the given parallelism and loads
// the manifest it wrote.
func manifestFor(t *testing.T, id string, parallel int) obs.Manifest {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.json")
	runExperimentQuiet(t, []string{id, "-size", "tiny",
		"-parallel", strconv.Itoa(parallel), "-manifest", path})
	m, err := obs.ReadManifestFile(path)
	if err != nil {
		t.Fatalf("reading manifest: %v", err)
	}
	return m
}

// TestManifestParallelParity is the observability layer's core determinism
// guarantee: the manifests of a serial run (-parallel 1) and a parallel
// run (-parallel 8) of the same workload must be identical modulo timing —
// same stages, same counters, same events/bytes per span. A difference
// would mean the scheduler changed *what* was computed, not just when.
func TestManifestParallelParity(t *testing.T) {
	serial := manifestFor(t, "table3", 1)
	parallel := manifestFor(t, "table3", 8)

	// The manifests must describe real work, or parity is vacuous.
	if len(serial.Spans) == 0 {
		t.Fatal("serial manifest has no spans")
	}
	if serial.Counters["expt.cells"] == 0 {
		t.Fatal("serial manifest scheduled no cells")
	}
	if serial.Counters["sim.cache.accesses"] == 0 {
		t.Fatal("serial manifest simulated no cache accesses")
	}
	var sawSimSpan bool
	for _, sp := range serial.Spans {
		if strings.HasPrefix(sp.Name, "simulate/") {
			sawSimSpan = true
			if sp.Events == 0 || sp.Bytes == 0 {
				t.Errorf("span %s missing events/bytes: %+v", sp.Name, sp)
			}
		}
	}
	if !sawSimSpan {
		t.Fatal("no simulate/ spans in serial manifest")
	}

	// The environment fields must reflect the invocations (and be cleared
	// by normalization, or Equal below would trivially fail).
	if serial.Parallel != 1 || parallel.Parallel != 8 {
		t.Fatalf("manifest Parallel fields = %d, %d; want 1, 8", serial.Parallel, parallel.Parallel)
	}

	if !sameWork(serial, parallel) {
		ea, _ := serial.Normalized().Encode()
		eb, _ := parallel.Normalized().Encode()
		t.Errorf("normalized manifests differ between -parallel 1 and -parallel 8\nserial:\n%s\nparallel:\n%s", ea, eb)
	}
	d := obs.Diff(serial, parallel)
	if !d.Clean() {
		var sb strings.Builder
		d.Render(&sb)
		t.Errorf("obs.Diff reports fact drift:\n%s", sb.String())
	}
}

// TestManifestDiffDetectsWorkDrift runs two *different* workloads and
// checks the diff machinery flags them — the complement of the parity
// test, guarding against a Normalized() that strips too much. table1 only
// builds graphs; table3 reorders and simulates, so its facts (cells,
// cache accesses, simulate spans) cannot appear in table1's manifest.
func TestManifestDiffDetectsWorkDrift(t *testing.T) {
	a := manifestFor(t, "table3", 2)
	b := manifestFor(t, "table1", 2)
	if sameWork(a, b) {
		t.Fatal("manifests of different experiments compare equal")
	}
	if d := obs.Diff(a, b); d.Clean() {
		t.Fatal("obs.Diff reports no drift between different experiments")
	}
}

// sameWork reports whether a and b describe the same work: their
// normalized encodings are byte-identical.
func sameWork(a, b obs.Manifest) bool {
	ea, erra := a.Normalized().Encode()
	eb, errb := b.Normalized().Encode()
	return erra == nil && errb == nil && string(ea) == string(eb)
}
