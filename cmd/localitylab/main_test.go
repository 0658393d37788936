package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphlocality/internal/core"
	"graphlocality/internal/expt"
	"graphlocality/internal/gen"
	"graphlocality/internal/reorder"
	"graphlocality/internal/store"
	"graphlocality/internal/trace"
)

func TestGraphFileRoundTrip(t *testing.T) {
	g := gen.Ring(100)
	path := filepath.Join(t.TempDir(), "g.seg")
	if err := saveGraph(g, path); err != nil {
		t.Fatal(err)
	}
	h, err := loadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(h) {
		t.Error("file round trip changed the graph")
	}
	// Graphs commit through the shared atomic protocol, so they land with
	// mode 0644 like every other committed file, not CreateTemp's 0600.
	if fi, err := os.Stat(path); err != nil {
		t.Fatal(err)
	} else if fi.Mode().Perm() != 0o644 {
		t.Errorf("graph file mode = %v, want -rw-r--r--", fi.Mode().Perm())
	}
	if _, err := loadGraph(filepath.Join(t.TempDir(), "missing.seg")); err == nil {
		t.Error("missing file accepted")
	}
}

// captureStdout runs fn with stdout redirected to a temp file and
// returns what it printed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	old := os.Stdout
	os.Stdout = f
	err = fn()
	os.Stdout = old
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestCLIGraphFilePipeline drives gen -out → reorder -out → metrics over
// real files and checks the result matches the same pipeline run in
// process; every file the CLI writes is a GLAS container. Then one
// flipped byte must make loadGraph fail typed, exit 1 and quarantine.
func TestCLIGraphFilePipeline(t *testing.T) {
	dir := t.TempDir()
	in, out := filepath.Join(dir, "g.seg"), filepath.Join(dir, "g-dbg.seg")
	tr, seg := filepath.Join(dir, "g.trace"), filepath.Join(dir, "g.segcsr")
	captureStdout(t, func() error {
		return errors.Join(
			cmdGen([]string{"-kind", "social", "-scale", "9", "-edgefac", "8", "-seed", "7", "-out", in}),
			cmdReorder([]string{"-graph", in, "-alg", "dbg", "-out", out}),
			cmdTrace([]string{"-graph", out, "-threads", "2", "-out", tr}),
			cmdCompress([]string{"-graph", out, "-segverts", "64", "-out", seg}),
		)
	})
	metrics := captureStdout(t, func() error { return cmdMetrics([]string{"-graph", out}) })

	g := gen.SocialNetwork(9, 8, 7)
	res, err := reorder.RunContext(context.Background(), reorder.MustNew("dbg"), g)
	if err != nil {
		t.Fatal(err)
	}
	want := g.Relabel(res.Perm)
	if h, err := loadGraph(out); err != nil || !h.Equal(want) {
		t.Fatalf("reorder -out file differs from the in-process relabeling (err %v)", err)
	}
	wantMetrics := fmt.Sprintf("%v\nmean AID %.1f, average gap %.1f, reciprocity %.3f\n",
		want, core.MeanAID(want), core.AverageGap(want), core.Reciprocity(want))
	if metrics != wantMetrics {
		t.Fatalf("metrics -graph printed\n%s\nwant\n%s", metrics, wantMetrics)
	}
	for _, path := range []string{in, out, tr, seg} {
		raw, err := os.ReadFile(path)
		if err != nil || !bytes.HasPrefix(raw, []byte("GLAS")) {
			t.Fatalf("%s does not start with GLAS (err %v)", filepath.Base(path), err)
		}
	}

	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(out, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = loadGraph(out)
	var ie *store.IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("loadGraph(corrupt) = %v, want *store.IntegrityError", err)
	}
	if code := exitCode(err); code != exitFailure {
		t.Errorf("exitCode = %d, want %d", code, exitFailure)
	}
	if _, err := os.Stat(out + store.CorruptSuffix); err != nil {
		t.Errorf("corrupt graph not quarantined: %v", err)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("corrupt graph still at its path: %v", err)
	}
}

// TestCmdSimulateECSOnSmallGraph: on a graph of fewer than 200 accesses,
// simulate -ecs still takes snapshots, at the experiments' cadence.
func TestCmdSimulateECSOnSmallGraph(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.seg")
	captureStdout(t, func() error { return cmdGen([]string{"-kind", "social", "-scale", "3", "-out", path}) })
	g, err := loadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := trace.CountAccesses(g); n >= 200 {
		t.Fatalf("graph has %d accesses; the check needs fewer than 200", n)
	}
	out := captureStdout(t, func() error { return cmdSimulate([]string{"-graph", path, "-ecs"}) })
	var ecs float64
	var snaps int
	i := strings.Index(out, "effective cache size:")
	if i < 0 {
		t.Fatalf("no ECS line in\n%s", out)
	}
	if _, err := fmt.Sscanf(out[i:], "effective cache size: %f%% over %d snapshots", &ecs, &snaps); err != nil {
		t.Fatal(err)
	}
	if snaps < 1 {
		t.Errorf("simulate -ecs took %d snapshots, want at least 1:\n%s", snaps, out)
	}
}

// TestCmdGenRejectsBadInput: gen with a scale whose 2^scale wraps or an
// edge factor below 1 is a usage error that writes no -out file.
func TestCmdGenRejectsBadInput(t *testing.T) {
	for _, args := range [][]string{
		{"-kind", "er", "-scale", "32"},
		{"-kind", "er", "-scale", "4", "-edgefac", "0"},
	} {
		out := filepath.Join(t.TempDir(), "g.seg")
		err := cmdGen(append(args, "-out", out))
		var ue *usageError
		if !errors.As(err, &ue) || exitCode(err) != exitUsage {
			t.Errorf("gen %v = %v, want a usage error (exit %d)", args, err, exitUsage)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("gen %v wrote -out (stat: %v)", args, err)
		}
	}
}

// TestCmdReplayRejectsHugeGeometry: a geometry past the simulator's line
// cap fails Validate with its message and a non-zero exit, before replay
// allocates the cache (2^30 sets x 64 ways would need terabytes).
func TestCmdReplayRejectsHugeGeometry(t *testing.T) {
	tr := filepath.Join(t.TempDir(), "t.tr")
	g := gen.SocialNetwork(6, 4, 1)
	f, err := os.Create(tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteLogs(trace.CollectLogs(g, trace.NewLayout(g), trace.Pull, 1), f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	err = cmdReplay([]string{"-trace", tr, "-sets", "1073741824", "-ways", "64"})
	if err == nil || !strings.Contains(err.Error(), "cachesim: 1073741824 sets x 64 ways") || exitCode(err) == 0 {
		t.Fatalf("replay of 2^30 x 64 = %v (exit %d), want the Validate error and a non-zero exit", err, exitCode(err))
	}
}

// TestTraceReplayUsageErrors: a missing -graph, -out or -trace, and a bad
// -dir, are usage errors (exit 2); the -dir check runs before the graph is
// read, so a nonexistent -graph does not mask it.
func TestTraceReplayUsageErrors(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "missing.seg")
	out := filepath.Join(dir, "t.tr")
	cases := []struct {
		name string
		run  func([]string) error
		args []string
	}{
		{"trace without -graph", cmdTrace, []string{"-out", out}},
		{"trace without -out", cmdTrace, []string{"-graph", missing}},
		{"trace with a bad -dir", cmdTrace, []string{"-graph", missing, "-out", out, "-dir", "sideways"}},
		{"replay without -trace", cmdReplay, nil},
	}
	for _, c := range cases {
		if err := c.run(c.args); exitCode(err) != exitUsage {
			t.Errorf("%s = %v (exit %d), want exit %d", c.name, err, exitCode(err), exitUsage)
		}
	}
}

// TestExperimentEmptyID: an empty experiment id is the usual usage
// error, not an index panic.
func TestExperimentEmptyID(t *testing.T) {
	err := cmdExperiment([]string{""})
	var ue *usageError
	if !errors.As(err, &ue) || exitCode(err) != exitUsage {
		t.Fatalf("experiment \"\" = %v, want a usage error (exit %d)", err, exitUsage)
	}
}

func TestDatasetFromFile(t *testing.T) {
	g := gen.WebGraph(gen.DefaultWebGraph(2048, 8, 3))
	path := filepath.Join(t.TempDir(), "web.seg")
	if err := saveGraph(g, path); err != nil {
		t.Fatal(err)
	}
	ds, err := datasetFromFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Kind != expt.WebGraph {
		t.Errorf("kind = %v, want WG", ds.Kind)
	}
	if ds.Build().NumEdges() != g.NumEdges() {
		t.Error("dataset graph differs")
	}
	if _, err := datasetFromFile("/does/not/exist"); err == nil {
		t.Error("missing file accepted")
	}
}

// TestExperimentRejectsUnknownSize: a -size other than tiny or standard
// is a usage error, not a silent Standard run.
func TestExperimentRejectsUnknownSize(t *testing.T) {
	err := cmdExperiment([]string{"table1", "-size", "large"})
	var ue *usageError
	if !errors.As(err, &ue) || exitCode(err) != exitUsage {
		t.Fatalf("experiment table1 -size large = %v, want a usage error (exit %d)", err, exitUsage)
	}
}

// TestExperimentRejectsUnknownID: the usage error for an unknown id lists
// the registry's ids.
func TestExperimentRejectsUnknownID(t *testing.T) {
	err := cmdExperiment([]string{"tableX"})
	if exitCode(err) != exitUsage || !strings.Contains(err.Error(), "utilization, all") {
		t.Fatalf("experiment tableX = %v, want a usage error listing the ids", err)
	}
}

func TestMain(m *testing.M) {
	os.Exit(m.Run())
}
