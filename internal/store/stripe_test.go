package store

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestLockStripeNameIsFormat pins the name → stripe mapping. Every
// process sharing a directory must agree on it, so a change here is an
// on-disk format change, not a tuning.
func TestLockStripeNameIsFormat(t *testing.T) {
	s, _ := openTestStore(t)
	for _, name := range []string{"good.bin", "a.perm", "TwtrS__go.perm"} {
		low := byte(crc32.Checksum([]byte(name), Castagnoli))
		want := filepath.Join(s.Dir(), fmt.Sprintf(".stripe-%02x.lock", low))
		if got := s.lockPath(name); got != want {
			t.Errorf("lockPath(%q) = %s, want %s", name, got, want)
		}
	}
	if got := filepath.Base(s.lockPath("good.bin")); got != ".stripe-f6.lock" {
		t.Errorf("good.bin maps to %s, want .stripe-f6.lock", got)
	}
	if err := validName(filepath.Base(s.lockPath("good.bin"))); err == nil {
		t.Error("a stripe's name is accepted as an artifact name")
	}
}

// TestLockStripeBoundsLockFiles: a store of many artifacts holds at most
// lockStripes lock files, where it once held one per artifact.
func TestLockStripeBoundsLockFiles(t *testing.T) {
	s, _ := openTestStore(t)
	const n = 1000
	payload := []Section{{Name: "v", Data: []byte{1}}}
	for i := 0; i < n; i++ {
		_, err := s.GetOrCompute(fmt.Sprintf("a%04d.bin", i), true, nil, func() ([]Section, error) {
			return payload, nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	infos, err := s.Scan(false)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, in := range infos {
		kinds[in.Kind]++
		if in.Kind == "lock" && !strings.HasPrefix(in.Name, stripePrefix) {
			t.Errorf("lock file %s is not a stripe", in.Name)
		}
	}
	if kinds["artifact"] != n || kinds["lock"] > lockStripes || len(infos) != kinds["artifact"]+kinds["lock"] {
		t.Errorf("directory holds %v, want %d artifacts and at most %d lock files", kinds, n, lockStripes)
	}
}

// TestLockStripeSharedComputesOnce computes two artifacts of one stripe
// through two Store handles on one directory (separate lock descriptors,
// like two processes). The shared stripe serializes their computes, yet
// each is computed exactly once and every call returns its own content.
func TestLockStripeSharedComputesOnce(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(nil, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Open(nil, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"x0.bin"}
	for i := 1; len(names) < 2; i++ {
		if name := fmt.Sprintf("x%d.bin", i); s1.lockPath(name) == s1.lockPath(names[0]) {
			names = append(names, name)
		}
	}

	var computes [2]atomic.Int32
	var inFlight, overlaps atomic.Int32
	var wg sync.WaitGroup
	for _, st := range []*Store{s1, s2} {
		for k, name := range names {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := st.GetOrCompute(name, true, nil, func() ([]Section, error) {
					if inFlight.Add(1) > 1 {
						overlaps.Add(1)
					}
					defer inFlight.Add(-1)
					computes[k].Add(1)
					time.Sleep(20 * time.Millisecond)
					return []Section{{Name: "name", Data: []byte(name)}}, nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				if len(res.Sections) != 1 || string(res.Sections[0].Data) != name {
					t.Errorf("%s: got %v", name, res.Sections)
				}
			}()
		}
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("GetOrCompute on a shared stripe never returned")
	}
	for k, name := range names {
		if n := computes[k].Load(); n != 1 {
			t.Errorf("%s computed %d times, want exactly 1", name, n)
		}
	}
	if n := overlaps.Load(); n != 0 {
		t.Errorf("%d computes ran while another held the shared stripe", n)
	}
}

// TestLockStripeLegacyLockFileKept: a <name>.lock sidecar an older build
// left behind is still a lock file to Scan, and GC keeps it (a process of
// that build may hold it).
func TestLockStripeLegacyLockFileKept(t *testing.T) {
	s, _ := openTestStore(t)
	if err := s.WriteArtifact("good.bin", sampleSections()); err != nil {
		t.Fatal(err)
	}
	legacy := "good.bin" + LockSuffix
	if err := os.WriteFile(s.Path(legacy), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	infos, err := s.Scan(false)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]string{}
	for _, in := range infos {
		kinds[in.Name] = in.Kind
	}
	if kinds[legacy] != "lock" {
		t.Errorf("Scan kind of %s = %q, want lock", legacy, kinds[legacy])
	}
	removed, err := s.GC(GCOptions{TempAge: -1, PurgeCorrupt: true})
	if err != nil || len(removed) != 0 {
		t.Errorf("GC removed %v (err %v), want nothing", removed, err)
	}
	if _, err := os.Stat(s.Path(legacy)); err != nil {
		t.Errorf("GC removed the legacy lock file: %v", err)
	}
}
