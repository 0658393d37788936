package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphlocality/internal/obs"
	"graphlocality/internal/vfs"
)

// The chaos harness for the write protocol itself: crash or corrupt a
// write at every step of vfs.WriteFileAtomic, through a vfs.FaultFS
// passed to Open, and assert the invariant the store promises — after a
// "restart", a read either returns fully-verified data (old or new
// version) or a detectable miss/corruption, never a torn artifact
// presented as valid. File faults are per-FS, so these tests share no
// global state.

// writeStep is one crash point of an atomic write: a crash rule on the
// operation that performs the step, and whether the rename had already
// committed the new version when it struck.
type writeStep struct {
	name      string
	rule      vfs.Rule
	committed bool
}

// writeSteps returns a crash rule for every step of one atomic write.
// The skips come from the op sequence of one clean write: creates counts
// the creates before the temp file's (lock files count as create) and
// opens the opens before the directory's. With bufio the first data
// write lands at flush, the temp file's fsync is the first sync, and the
// directory's fsync the second — the last operation of the commit, so a
// crash there leaves the disk state of a crash after the commit.
func writeSteps(creates, opens int) []writeStep {
	crash := func(op vfs.Op, skip int) vfs.Rule {
		return vfs.Rule{Op: op, Kind: vfs.FaultCrash, Skip: skip, Times: 1}
	}
	return []writeStep{
		{"store.write.create-temp", crash(vfs.OpCreate, creates), false},
		{"store.write.before-flush", crash(vfs.OpWrite, 0), false},
		{"store.write.before-sync", crash(vfs.OpSync, 0), false},
		{"store.write.before-rename", crash(vfs.OpRename, 0), false},
		{"store.write.before-dirsync", crash(vfs.OpOpen, opens), true},
		{"store.write.after-commit", crash(vfs.OpSync, 1), true},
	}
}

// writeArtifactSteps are the steps of WriteArtifact: the exclusive lock
// is create #0, and nothing opens before the directory.
var writeArtifactSteps = writeSteps(1, 0)

// openFaultStore opens a store in a fresh directory whose every disk
// touch goes through a FaultFS with the given rules.
func openFaultStore(t *testing.T, rules ...vfs.Rule) (*Store, *vfs.FaultFS, *obs.Registry) {
	t.Helper()
	fault, err := vfs.NewFaultFS(nil, rules)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s, err := Open(fault, t.TempDir(), reg)
	if err != nil {
		t.Fatal(err)
	}
	return s, fault, reg
}

// wantCrash asserts err is an injected crash and that exactly one
// operation faulted — the step the rule names, not a later one.
func wantCrash(t *testing.T, err error, fault *vfs.FaultFS) {
	t.Helper()
	if !errors.Is(err, vfs.ErrInjectedCrash) {
		t.Fatalf("crashed write returned %v, want ErrInjectedCrash", err)
	}
	if n := fault.Fired(); n != 1 {
		t.Fatalf("FaultFS fired %d times, want 1", n)
	}
}

// TestCrashAtEveryPointFreshWrite crashes the *first* write of an
// artifact at every step and checks what a restarted process sees.
func TestCrashAtEveryPointFreshWrite(t *testing.T) {
	for _, step := range writeArtifactSteps {
		t.Run(step.name, func(t *testing.T) {
			s, fault, _ := openFaultStore(t, step.rule)
			wantCrash(t, s.WriteArtifact("a.bin", sampleSections()), fault)
			// Restart: a fresh read must be a clean miss or verified data —
			// crashes after the rename leave the complete new version.
			got, rerr := s.ReadArtifact("a.bin")
			if step.committed {
				if rerr != nil {
					t.Fatalf("post-rename crash: read failed: %v", rerr)
				}
				if d, _ := FindSection(got, "meta"); !bytes.Equal(d, []byte{1, 2, 3, 4}) {
					t.Fatalf("post-rename crash: wrong payload %v", d)
				}
			} else if !os.IsNotExist(rerr) {
				t.Fatalf("pre-rename crash: read returned (%d sections, %v), want clean miss", len(got), rerr)
			}
			// The retried write always succeeds and verifies.
			if err := s.WriteArtifact("a.bin", sampleSections()); err != nil {
				t.Fatalf("write after crash: %v", err)
			}
			if _, err := s.ReadArtifact("a.bin"); err != nil {
				t.Fatalf("read after recovery: %v", err)
			}
		})
	}
}

// TestCrashAtEveryPointOverwrite crashes an *overwrite* at every step:
// the old verified version must remain readable for every pre-rename
// crash, and the new verified version for every post-rename crash —
// never a mixture, never nothing.
func TestCrashAtEveryPointOverwrite(t *testing.T) {
	oldSections := []Section{{Name: "v", Data: []byte("old-version")}}
	newSections := []Section{{Name: "v", Data: []byte("new-version")}}
	for _, step := range writeArtifactSteps {
		t.Run(step.name, func(t *testing.T) {
			s, fault, _ := openFaultStore(t, step.rule)
			clean, err := Open(nil, s.Dir(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := clean.WriteArtifact("a.bin", oldSections); err != nil {
				t.Fatal(err)
			}
			wantCrash(t, s.WriteArtifact("a.bin", newSections), fault)
			got, err := s.ReadArtifact("a.bin")
			if err != nil {
				t.Fatalf("read after crashed overwrite: %v", err)
			}
			d, _ := FindSection(got, "v")
			want := "old-version"
			if step.committed {
				want = "new-version"
			}
			if string(d) != want {
				t.Fatalf("crash at %s reads %q, want %s", step.name, d, want)
			}
		})
	}
}

// TestCorruptionModesAreCaughtAndQuarantined lands torn-write and
// bit-rot damage on the committed artifact through lying vfs writes
// (short persists half the buffer, flip one flipped bit of its middle
// byte; both report success, exactly as a real torn write or bit rot
// would) and asserts the read path refuses, quarantines and reports a
// typed error. Each artifact fits one buffered write, so the damage
// lands where the case name says.
func TestCorruptionModesAreCaughtAndQuarantined(t *testing.T) {
	// Header, table and header CRC are 34 of this container's 38 bytes.
	headerHeavy := []Section{{Name: "meta", Data: []byte{1, 2, 3, 4}}}
	cases := []struct {
		name     string
		kind     vfs.FaultKind
		sections []Section
	}{
		{"truncate-half", vfs.FaultShortWrite, sampleSections()},
		{"truncate-header", vfs.FaultShortWrite, headerHeavy},
		{"bitflip-payload", vfs.FaultFlip, sampleSections()},
		{"bitflip-table", vfs.FaultFlip, headerHeavy},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, fault, reg := openFaultStore(t, vfs.Rule{Op: vfs.OpWrite, Kind: tc.kind, Times: 1})
			// The writer must NOT notice: torn writes are silent.
			if err := s.WriteArtifact("a.bin", tc.sections); err != nil {
				t.Fatalf("corrupted write surfaced to the writer: %v", err)
			}
			if n := fault.Fired(); n != 1 {
				t.Fatalf("FaultFS fired %d times, want 1", n)
			}
			_, err := s.ReadArtifact("a.bin")
			var ie *IntegrityError
			if !errors.As(err, &ie) {
				t.Fatalf("read of corrupted artifact returned %v, want *IntegrityError", err)
			}
			if ie.Quarantined == "" {
				t.Error("corrupted artifact not quarantined")
			}
			if n := reg.Counter("store.integrity_errors").Value(); n != 1 {
				t.Errorf("store.integrity_errors = %d", n)
			}
			// Regeneration is clean: write again, read verified.
			if err := s.WriteArtifact("a.bin", tc.sections); err != nil {
				t.Fatal(err)
			}
			if _, err := s.ReadArtifact("a.bin"); err != nil {
				t.Fatalf("read after regeneration: %v", err)
			}
		})
	}
}

// TestGetOrComputeRegeneratesAfterCrash drives the full resume flow: a
// crashed write leaves debris, a second GetOrCompute (the "-resume"
// restart) must transparently recompute and persist.
func TestGetOrComputeRegeneratesAfterCrash(t *testing.T) {
	// A reusing GetOrCompute on a missing artifact takes the shared lock
	// (create #0) and misses (open #0), then the exclusive lock (create
	// #1) and misses again (open #1) before it writes.
	for _, step := range writeSteps(2, 2) {
		t.Run(step.name, func(t *testing.T) {
			s, fault, _ := openFaultStore(t, step.rule)
			compute := func() ([]Section, error) {
				return []Section{{Name: "v", Data: []byte("computed")}}, nil
			}
			res, err := s.GetOrCompute("x.bin", true, nil, compute)
			// The compute succeeded; only the persistence crashed.
			if err != nil {
				t.Fatalf("GetOrCompute failed outright: %v", err)
			}
			wantCrash(t, res.WriteErr, fault)
			if d, _ := FindSection(res.Sections, "v"); string(d) != "computed" {
				t.Fatalf("crashed-write result payload %q", d)
			}
			// Restart: crashes after the rename left a committed artifact
			// the restart restores; earlier ones force a recompute.
			res2, err := s.GetOrCompute("x.bin", true, nil, compute)
			if err != nil || res2.WriteErr != nil {
				t.Fatalf("restart GetOrCompute: err=%v writeErr=%v", err, res2.WriteErr)
			}
			if res2.Restored != step.committed {
				t.Fatalf("restart restored=%v, want %v", res2.Restored, step.committed)
			}
			if d, _ := FindSection(res2.Sections, "v"); string(d) != "computed" {
				t.Fatalf("restart payload %q", d)
			}
			// Either way a third call must restore from a verified file.
			res3, err := s.GetOrCompute("x.bin", true, nil, func() ([]Section, error) {
				t.Error("third GetOrCompute recomputed")
				return nil, nil
			})
			if err != nil || !res3.Restored {
				t.Fatalf("third GetOrCompute: err=%v restored=%v", err, res3.Restored)
			}
		})
	}
}

// TestCrashLeavesCollectableTempOnly: whatever a crash leaves behind is
// either the artifact itself or a ".tmp-*" orphan that GC collects;
// nothing else may appear in the directory.
func TestCrashLeavesCollectableTempOnly(t *testing.T) {
	for _, step := range writeArtifactSteps {
		t.Run(step.name, func(t *testing.T) {
			s, fault, _ := openFaultStore(t, step.rule)
			wantCrash(t, s.WriteArtifact("a.bin", sampleSections()), fault)
			entries, err := os.ReadDir(s.Dir())
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				name := e.Name()
				ok := name == "a.bin" || strings.HasPrefix(name, ".tmp-") || strings.HasSuffix(name, LockSuffix)
				if !ok {
					t.Errorf("unexpected debris %q after crash at %s", name, step.name)
				}
			}
			removed, err := s.GC(GCOptions{TempAge: -1})
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range removed {
				if !strings.HasPrefix(r, ".tmp-") {
					t.Errorf("GC removed non-temp %q", r)
				}
			}
			// Nothing orphaned survives GC but locks and the artifact.
			entries, err = os.ReadDir(s.Dir())
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if strings.HasPrefix(e.Name(), ".tmp-") {
					t.Errorf("GC left temp %q", filepath.Join(s.Dir(), e.Name()))
				}
			}
		})
	}
}
