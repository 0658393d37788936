package expt

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"graphlocality/internal/graph"
	"graphlocality/internal/obs"
	"graphlocality/internal/reorder"
	"graphlocality/internal/runctl"
	"graphlocality/internal/trace"
)

// TestDegradedStageStillProducesFullTable is the acceptance scenario: a
// panic injected into one RA stage during Table II must not kill the run —
// every row still renders, with the affected pair degraded to Initial and
// footnoted.
func TestDegradedStageStillProducesFullTable(t *testing.T) {
	s, ds := tinySession()
	algs := StandardAlgorithms()
	victim := "reorder/" + ds[0].Name + "/" + algs[1].Name()
	remove := runctl.Inject(victim, runctl.Failpoint{Mode: runctl.FailPanic, Panic: "injected RA crash"})
	defer remove()

	rows := TableII(s, ds, algs)
	// Table II skips the Initial baseline (it has no preprocessing cost).
	if want := len(ds) * (len(algs) - 1); len(rows) != want {
		t.Fatalf("got %d rows, want %d — the panic must not drop rows", len(rows), want)
	}
	var degraded int
	for _, r := range rows {
		if r.Degraded {
			degraded++
			if r.Dataset != ds[0].Name || r.Algorithm != algs[1].Name() {
				t.Errorf("wrong pair degraded: %s/%s", r.Dataset, r.Algorithm)
			}
			if !strings.Contains(r.DegradedReason, "injected RA crash") {
				t.Errorf("reason %q lost the panic value", r.DegradedReason)
			}
		}
	}
	if degraded != 1 {
		t.Fatalf("degraded rows = %d, want exactly 1", degraded)
	}

	// The degraded permutation is the Initial (identity) fallback.
	res := s.Reorder(ds[0], algs[1])
	for i, v := range res.Perm {
		if uint32(i) != v {
			t.Fatal("degraded stage did not fall back to the identity permutation")
		}
	}
	// And its relabeled graph short-circuits to the original.
	if s.Relabeled(ds[0], algs[1]) != s.Graph(ds[0]) {
		t.Error("degraded pair must reuse the original graph")
	}

	out := RenderTableII(rows)
	if !strings.Contains(out, "degraded to Initial") {
		t.Error("rendered table lacks the degradation footnote")
	}

	reason, ok := s.Degraded(ds[0], algs[1])
	if !ok || !strings.Contains(reason, "panic") {
		t.Errorf("Degraded() = %q, %v", reason, ok)
	}
}

// TestStageDeadlineDegrades checks a deadline overrun (not a panic) also
// degrades gracefully: the slow RA is cancelled cooperatively and its row
// falls back to Initial.
func TestStageDeadlineDegrades(t *testing.T) {
	s, ds := tinySession()
	s.Ctrl = runctl.New(context.Background(), runctl.Config{StageTimeout: time.Millisecond})
	victim := "reorder/" + ds[0].Name + "/hang"
	remove := runctl.Inject(victim, runctl.Failpoint{Mode: runctl.FailHang})
	defer remove()

	alg := hangAlg{}
	res := s.Reorder(ds[0], alg)
	checkIdentity(t, res.Perm)
	reason, ok := s.Degraded(ds[0], alg)
	if !ok {
		t.Fatal("deadline overrun not recorded as degraded")
	}
	if !strings.Contains(reason, "deadline") && !strings.Contains(reason, "cancel") {
		t.Errorf("reason %q does not mention the deadline", reason)
	}
}

// hangAlg blocks in the failpoint until its stage context dies.
type hangAlg struct{}

func (hangAlg) Name() string { return "hang" }
func (hangAlg) Spec() string { return "hang" }
func (hangAlg) Reorder(_ context.Context, g *graph.Graph) (graph.Permutation, error) {
	return graph.Identity(g.NumVertices()), nil
}

func checkIdentity(t *testing.T, p graph.Permutation) {
	t.Helper()
	for i, v := range p {
		if uint32(i) != v {
			t.Fatalf("perm[%d] = %d, want identity", i, v)
		}
	}
}

// TestCheckpointRoundTrip checks save→load preserves the result and load
// rejects wrong sizes and corruption.
func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	perm := graph.Permutation{3, 1, 0, 2}
	res := reorder.Result{
		Algorithm:  "GO",
		Perm:       perm,
		Elapsed:    1234 * time.Microsecond,
		AllocBytes: 9876,
	}
	if err := SavePermCheckpoint(nil, dir, "TwtrT", "GO", res); err != nil {
		t.Fatalf("save: %v", err)
	}
	got, err := LoadPermCheckpoint(nil, dir, "TwtrT", "GO", 4)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if got.Algorithm != "GO" || got.Elapsed != res.Elapsed || got.AllocBytes != res.AllocBytes {
		t.Errorf("metadata mangled: %+v", got)
	}
	for i := range perm {
		if got.Perm[i] != perm[i] {
			t.Fatalf("perm[%d] = %d, want %d", i, got.Perm[i], perm[i])
		}
	}

	// Wrong expected size is rejected (a tiny-suite checkpoint must not
	// leak into a standard-suite run).
	if _, err := LoadPermCheckpoint(nil, dir, "TwtrT", "GO", 5); err == nil {
		t.Error("size mismatch accepted")
	}
	// Missing pair.
	if _, err := LoadPermCheckpoint(nil, dir, "TwtrT", "RO", 4); err == nil {
		t.Error("missing checkpoint accepted")
	}

	// Flip one payload byte: the checksum must catch it.
	path := filepath.Join(dir, CheckpointName("TwtrT", "GO"))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPermCheckpoint(nil, dir, "TwtrT", "GO", 4); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("corruption not caught by checksum: %v", err)
	}

	// Truncation.
	if err := os.WriteFile(path, data[:6], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPermCheckpoint(nil, dir, "TwtrT", "GO", 4); err == nil {
		t.Error("truncated checkpoint accepted")
	}
}

func TestCheckpointRejectsNonPermutation(t *testing.T) {
	dir := t.TempDir()
	res := reorder.Result{Algorithm: "X", Perm: graph.Permutation{0, 0, 1, 2}}
	if err := SavePermCheckpoint(nil, dir, "d", "X", res); err != nil {
		t.Fatalf("save: %v", err)
	}
	if _, err := LoadPermCheckpoint(nil, dir, "d", "X", 4); err == nil || !strings.Contains(err.Error(), "permutation") {
		t.Errorf("duplicate-mapping payload accepted: %v", err)
	}
}

func TestCheckpointPathSanitized(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, CheckpointName("../../etc", "RO+GO"))
	if filepath.Dir(p) != filepath.Clean(dir) {
		t.Fatalf("checkpoint path %q escapes %q", p, dir)
	}
	if strings.ContainsAny(filepath.Base(p), "/\\") {
		t.Fatalf("separator survived sanitization: %q", p)
	}
}

// TestResumeSkipsCheckpointedStages is the second acceptance scenario: a
// resumed session must reuse every checkpointed permutation without
// recomputing, asserted via failpoint hit counters on the reorder stages.
func TestResumeSkipsCheckpointedStages(t *testing.T) {
	dir := t.TempDir()
	algs := StandardAlgorithms()

	// First run: compute and checkpoint everything (write-through).
	s1, ds := tinySession()
	s1.CacheDir = dir
	for _, d := range ds {
		for _, alg := range algs {
			s1.Reorder(d, alg)
		}
	}

	// Second session resumes: every reorder stage must be served from disk,
	// so no stage failpoint is ever reached.
	s2, _ := tinySession()
	s2.CacheDir = dir
	s2.Resume = true
	var removers []func()
	for _, d := range ds {
		for _, alg := range algs {
			stage := "reorder/" + d.Name + "/" + alg.Name()
			removers = append(removers, runctl.Inject(stage, runctl.Failpoint{Mode: runctl.FailPanic}))
		}
	}
	defer func() {
		for _, r := range removers {
			r()
		}
	}()
	for _, d := range ds {
		for _, alg := range algs {
			r1 := s1.Reorder(d, alg)
			r2 := s2.Reorder(d, alg)
			if len(r2.Perm) != len(r1.Perm) {
				t.Fatalf("%s/%s: resumed perm has %d entries, want %d", d.Name, alg.Name(), len(r2.Perm), len(r1.Perm))
			}
			for i := range r1.Perm {
				if r1.Perm[i] != r2.Perm[i] {
					t.Fatalf("%s/%s: resumed permutation differs at %d", d.Name, alg.Name(), i)
				}
			}
			if !s2.Restored(d, alg) {
				t.Errorf("%s/%s: not marked restored", d.Name, alg.Name())
			}
		}
	}
	for _, d := range ds {
		for _, alg := range algs {
			stage := "reorder/" + d.Name + "/" + alg.Name()
			if hits := runctl.HitCount(stage); hits != 0 {
				t.Errorf("stage %s recomputed %d times on resume, want 0", stage, hits)
			}
		}
	}
	if len(s2.DegradedStages()) != 0 {
		t.Errorf("resume degraded stages: %v", s2.DegradedStages())
	}
}

// TestResumeRecomputesMissingCheckpoint checks resume only skips what is
// actually on disk: an uncheckpointed pair is computed normally.
func TestResumeRecomputesMissingCheckpoint(t *testing.T) {
	s, ds := tinySession()
	s.CacheDir = t.TempDir()
	s.Resume = true
	alg := reorder.DegreeSort{}
	stage := "reorder/" + ds[0].Name + "/" + alg.Name()
	remove := runctl.Inject(stage, runctl.Failpoint{Mode: runctl.FailError, Times: -1})
	defer remove()
	// Times < 0 never triggers; the failpoint is a pure hit counter here.
	s.Reorder(ds[0], alg)
	if hits := runctl.HitCount(stage); hits != 1 {
		t.Errorf("stage hits = %d, want 1 (computed once)", hits)
	}
	if s.Restored(ds[0], alg) {
		t.Error("pair wrongly marked restored")
	}
	// The write-through checkpoint now exists and validates.
	g := s.Graph(ds[0])
	if _, err := LoadPermCheckpoint(nil, s.CacheDir, ds[0].Name, alg.Spec(), g.NumVertices()); err != nil {
		t.Errorf("write-through checkpoint unreadable: %v", err)
	}
}

// TestSimulateCancellation checks a dead root context stops the simulation
// stage and marks the partial counters canceled.
func TestSimulateCancellation(t *testing.T) {
	s, ds := tinySession()
	ctx, cancel := context.WithCancel(context.Background())
	s.Ctrl = runctl.New(ctx, runctl.Config{})
	cancel()
	res := s.Simulate(ds[0], reorder.Identity{}, trace.Pull)
	if !res.Canceled {
		t.Error("simulation under a dead context not marked canceled")
	}
	if !s.Canceled() {
		t.Error("session does not report cancellation")
	}
}

// TestSimulateCanceledNotKept checks a canceled simulation is not
// memoized: once the session has a live controller again, the same cell
// simulates in full.
func TestSimulateCanceledNotKept(t *testing.T) {
	s, ds := tinySession()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.Ctrl = runctl.New(ctx, runctl.Config{})
	if res := s.Simulate(ds[0], reorder.Identity{}, trace.Pull); !res.Canceled {
		t.Fatal("simulation under a dead context not marked canceled")
	}
	s.Ctrl = runctl.New(context.Background(), runctl.Config{})
	res := s.Simulate(ds[0], reorder.Identity{}, trace.Pull)
	if res.Canceled {
		t.Fatal("canceled simulation was kept: the retry under a live controller is canceled too")
	}
	if want := trace.CountAccesses(s.Graph(ds[0])); res.Cache.Accesses != want {
		t.Errorf("retry simulated %d accesses, want the whole stream of %d", res.Cache.Accesses, want)
	}
}

// TestSimulateStagePerDirection checks Table VI's pull and push-read
// simulations of one dataset run as separate stages, each once.
func TestSimulateStagePerDirection(t *testing.T) {
	reg := obs.NewRegistry()
	s, ds := tinySession()
	s.Obs = reg
	s.Ctrl = runctl.New(context.Background(), runctl.Config{Metrics: reg})
	TableVI(s, ds[:1])
	calls := map[string]uint64{}
	for _, sp := range reg.Manifest(obs.Meta{}).Spans {
		if strings.HasPrefix(sp.Name, "simulate/") {
			calls[sp.Name] = sp.Calls
		}
	}
	pull := "simulate/" + ds[0].Name + "/Initial"
	want := map[string]uint64{pull: 1, pull + "/pushread": 1}
	if !reflect.DeepEqual(calls, want) {
		t.Errorf("simulate spans %v, want %v", calls, want)
	}
}

// TestSimulateOncePerCell checks that the tables and figures reading one
// (dataset, RA) cell share a single simulation: after Table III, Fig. 1,
// Table IV, Table V and brew, every simulate stage ran exactly once.
func TestSimulateOncePerCell(t *testing.T) {
	reg := obs.NewRegistry()
	s, ds := tinySession()
	s.Obs = reg
	s.Ctrl = runctl.New(context.Background(), runctl.Config{Metrics: reg})
	algs := StandardAlgorithms()
	TableIII(s, ds, algs)
	Fig1(s, ds[0], algs)
	TableIV(s, ds, algs)
	TableV(s, ds, algs)
	BrewExperiment(s, ds)
	n := 0
	for _, sp := range reg.Manifest(obs.Meta{}).Spans {
		if !strings.HasPrefix(sp.Name, "simulate/") {
			continue
		}
		n++
		if sp.Calls != 1 {
			t.Errorf("%s ran %d times, want 1", sp.Name, sp.Calls)
		}
	}
	if n == 0 {
		t.Fatal("no simulate spans recorded")
	}
}
