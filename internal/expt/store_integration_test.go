package expt

import (
	"sync"
	"testing"

	"graphlocality/internal/obs"
	"graphlocality/internal/reorder"
	"graphlocality/internal/runctl"
	"graphlocality/internal/store"
	"graphlocality/internal/vfs"
)

// Integration tests of the session's persistence path: concurrent
// sessions sharing one cache directory, and crash-restart at every
// step of the store's write protocol.

// TestConcurrentSessionsShareCache runs two resuming sessions against
// one cache directory at the same time (each with its own store handle
// and therefore its own lock file descriptors, exactly like two
// processes sharing a -cachedir). Every permutation must be computed
// exactly once across both sessions, whoever loses the per-artifact lock
// race must restore the winner's verified bytes, and the results must be
// identical. Run with -race.
func TestConcurrentSessionsShareCache(t *testing.T) {
	dir := t.TempDir()
	_, ds := tinySession()
	ds = ds[:2]
	algs := StandardAlgorithms()

	newShared := func() *Session {
		s, _ := tinySession()
		s.CacheDir = dir
		s.Resume = true // reuse a peer's artifact instead of recomputing
		s.Parallel = 2
		return s
	}
	s1, s2 := newShared(), newShared()

	// Pure hit counters on every reorder stage (Times < 0 never fires).
	var removers []func()
	for _, d := range ds {
		for _, alg := range algs {
			stage := "reorder/" + d.Name + "/" + alg.Name()
			removers = append(removers, runctl.Inject(stage, runctl.Failpoint{Mode: runctl.FailError, Times: -1}))
		}
	}
	defer func() {
		for _, r := range removers {
			r()
		}
	}()

	var wg sync.WaitGroup
	for _, s := range []*Session{s1, s2} {
		wg.Add(1)
		go func(s *Session) {
			defer wg.Done()
			for _, d := range ds {
				for _, alg := range algs {
					s.Reorder(d, alg)
				}
			}
		}(s)
	}
	wg.Wait()

	for _, d := range ds {
		for _, alg := range algs {
			stage := "reorder/" + d.Name + "/" + alg.Name()
			if hits := runctl.HitCount(stage); hits != 1 {
				t.Errorf("%s computed %d times across two sessions, want exactly 1", stage, hits)
			}
			r1, r2 := s1.Reorder(d, alg), s2.Reorder(d, alg)
			if len(r1.Perm) != len(r2.Perm) {
				t.Fatalf("%s: perm lengths differ (%d vs %d)", stage, len(r1.Perm), len(r2.Perm))
			}
			for i := range r1.Perm {
				if r1.Perm[i] != r2.Perm[i] {
					t.Fatalf("%s: sessions disagree at index %d", stage, i)
				}
			}
			// Exactly one session computed, so exactly one restored.
			if a, b := s1.Restored(d, alg), s2.Restored(d, alg); a == b {
				t.Errorf("%s: restored flags (%v, %v), want exactly one computer and one restorer", stage, a, b)
			}
		}
	}
	if len(s1.DegradedStages()) != 0 || len(s2.DegradedStages()) != 0 {
		t.Errorf("degraded stages: %v / %v", s1.DegradedStages(), s2.DegradedStages())
	}
}

// checkpointWriteSteps is one crash rule per step of a session's first
// checkpoint write (a non-resuming GetOrCompute), with skips from the op
// sequence of one clean write: the exclusive lock file is create #0 and
// the temp file create #1; with bufio the first data write lands at
// flush; the temp file's fsync is sync #0; the directory's open and
// fsync are open #0 and sync #1 — the last operation of the commit, so a
// crash there leaves the disk state of a crash after the commit.
// committed marks the steps after the rename.
var checkpointWriteSteps = []struct {
	name      string
	rule      vfs.Rule
	committed bool
}{
	{"store.write.create-temp", vfs.Rule{Op: vfs.OpCreate, Kind: vfs.FaultCrash, Skip: 1, Times: 1}, false},
	{"store.write.before-flush", vfs.Rule{Op: vfs.OpWrite, Kind: vfs.FaultCrash, Times: 1}, false},
	{"store.write.before-sync", vfs.Rule{Op: vfs.OpSync, Kind: vfs.FaultCrash, Times: 1}, false},
	{"store.write.before-rename", vfs.Rule{Op: vfs.OpRename, Kind: vfs.FaultCrash, Times: 1}, false},
	{"store.write.before-dirsync", vfs.Rule{Op: vfs.OpOpen, Kind: vfs.FaultCrash, Times: 1}, true},
	{"store.write.after-commit", vfs.Rule{Op: vfs.OpSync, Kind: vfs.FaultCrash, Skip: 1, Times: 1}, true},
}

// TestSessionCrashRestartSweep crashes the checkpoint write at every
// step of the atomic-write protocol (a vfs.FaultFS as Session.FS: the
// chaos harness driving a whole Session instead of a bare store), then
// "restarts" with a -resume session on the clean filesystem and asserts
// the invariant: the restart either restores fully-verified data — for
// crashes after the rename — or transparently recomputes, and in both
// cases ends with the same permutation and a validating checkpoint on
// disk.
func TestSessionCrashRestartSweep(t *testing.T) {
	alg := reorder.DegreeSort{}
	for _, step := range checkpointWriteSteps {
		t.Run(step.name, func(t *testing.T) {
			dir := t.TempDir()
			s1, ds := tinySession()
			d := ds[0]
			s1.CacheDir = dir
			reg1 := obs.NewRegistry()
			s1.Obs = reg1
			fault, err := vfs.NewFaultFS(nil, []vfs.Rule{step.rule})
			if err != nil {
				t.Fatal(err)
			}
			s1.FS = fault

			r1 := s1.Reorder(d, alg)
			if n := fault.Fired(); n != 1 {
				t.Fatalf("FaultFS fired %d times, want 1", n)
			}

			// The crash hit only persistence: the run's result is intact and
			// the failure is surfaced in the manifest counters, not swallowed.
			if len(s1.DegradedStages()) != 0 {
				t.Fatalf("crashed checkpoint write degraded the stage: %v", s1.DegradedStages())
			}
			if n := reg1.Counter("expt.checkpoint_write_failures").Value(); n != 1 {
				t.Errorf("expt.checkpoint_write_failures = %d, want 1", n)
			}

			// Restart. A hit counter on the stage tells recompute from restore.
			s2, _ := tinySession()
			s2.CacheDir = dir
			s2.Resume = true
			reg2 := obs.NewRegistry()
			s2.Obs = reg2
			stage := "reorder/" + d.Name + "/" + alg.Name()
			removeCounter := runctl.Inject(stage, runctl.Failpoint{Mode: runctl.FailError, Times: -1})
			defer removeCounter()
			r2 := s2.Reorder(d, alg)

			if len(r1.Perm) != len(r2.Perm) {
				t.Fatalf("restart perm length %d, want %d", len(r2.Perm), len(r1.Perm))
			}
			for i := range r1.Perm {
				if r1.Perm[i] != r2.Perm[i] {
					t.Fatalf("restart permutation differs at %d", i)
				}
			}
			if step.committed {
				// The rename committed a complete verified artifact before the
				// crash: the restart must restore it, never recompute.
				if hits := runctl.HitCount(stage); hits != 0 {
					t.Errorf("post-rename crash recomputed (%d hits)", hits)
				}
				if !s2.Restored(d, alg) {
					t.Error("post-rename crash not marked restored")
				}
			} else {
				// Nothing durable landed: the restart must detect the clean
				// miss and recompute exactly once.
				if hits := runctl.HitCount(stage); hits != 1 {
					t.Errorf("pre-rename crash: %d stage hits, want 1 recompute", hits)
				}
				if s2.Restored(d, alg) {
					t.Error("pre-rename crash wrongly marked restored")
				}
			}
			// Whatever the path, the surviving checkpoint verifies.
			g := s2.Graph(d)
			if _, err := LoadPermCheckpoint(nil, dir, d.Name, alg.Spec(), g.NumVertices()); err != nil {
				t.Errorf("checkpoint after restart does not verify: %v", err)
			}
			if len(s2.DegradedStages()) != 0 {
				t.Errorf("restart degraded stages: %v", s2.DegradedStages())
			}
		})
	}
}

// TestSessionQuarantinesCorruptCheckpoint lands bit rot on a committed
// checkpoint and asserts a resuming session counts the integrity error,
// quarantines the evidence and regenerates — the user-visible half of
// the corruption-handling contract.
func TestSessionQuarantinesCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	alg := reorder.DegreeSort{}
	s1, ds := tinySession()
	d := ds[0]
	s1.CacheDir = dir
	// The checkpoint's one write persists with a flipped bit and reports
	// success, exactly as the chaos harness's flip fault does.
	fault, err := vfs.NewFaultFS(nil, []vfs.Rule{{Op: vfs.OpWrite, Kind: vfs.FaultFlip, Times: 1}})
	if err != nil {
		t.Fatal(err)
	}
	s1.FS = fault
	r1 := s1.Reorder(d, alg)
	if n := fault.Fired(); n != 1 {
		t.Fatalf("FaultFS fired %d times, want 1", n)
	}
	if len(s1.DegradedStages()) != 0 {
		t.Fatalf("silent corruption surfaced to the writer: %v", s1.DegradedStages())
	}
	st, err := store.Open(nil, dir, nil)
	if err != nil {
		t.Fatal(err)
	}

	s2, _ := tinySession()
	s2.CacheDir = dir
	s2.Resume = true
	reg := obs.NewRegistry()
	s2.Obs = reg
	r2 := s2.Reorder(d, alg)

	if reg.Counter("store.integrity_errors").Value() != 1 {
		t.Errorf("store.integrity_errors = %d, want 1", reg.Counter("store.integrity_errors").Value())
	}
	if reg.Counter("store.quarantined").Value() != 1 {
		t.Errorf("store.quarantined = %d, want 1", reg.Counter("store.quarantined").Value())
	}
	if s2.Restored(d, alg) {
		t.Error("corrupt checkpoint wrongly marked restored")
	}
	if len(s2.DegradedStages()) != 0 {
		t.Fatalf("corruption degraded the stage instead of regenerating: %v", s2.DegradedStages())
	}
	for i := range r1.Perm {
		if r1.Perm[i] != r2.Perm[i] {
			t.Fatalf("regenerated permutation differs at %d", i)
		}
	}
	// Evidence preserved, fresh checkpoint verifies.
	infos, err := st.Scan(false)
	if err != nil {
		t.Fatal(err)
	}
	var corrupt, artifacts int
	for _, info := range infos {
		switch info.Kind {
		case "corrupt":
			corrupt++
		case "artifact":
			artifacts++
			if info.Err != nil {
				t.Errorf("artifact %s fails verification after regeneration: %v", info.Name, info.Err)
			}
		}
	}
	if corrupt != 1 {
		t.Errorf("%d quarantined files, want 1", corrupt)
	}
	if artifacts != 1 {
		t.Errorf("%d artifacts, want 1 (the regenerated checkpoint)", artifacts)
	}
}
