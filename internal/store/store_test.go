package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"graphlocality/internal/obs"
	"graphlocality/internal/vfs"
)

func openTestStore(t *testing.T) (*Store, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	s, err := Open(nil, t.TempDir(), reg)
	if err != nil {
		t.Fatal(err)
	}
	return s, reg
}

func TestStoreWriteReadRoundTrip(t *testing.T) {
	s, reg := openTestStore(t)
	want := sampleSections()
	if err := s.WriteArtifact("a.perm", want); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadArtifact("a.perm")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || !bytes.Equal(got[1].Data, want[1].Data) {
		t.Fatalf("round trip mismatch: %d sections", len(got))
	}
	if n := reg.Counter("store.writes").Value(); n != 1 {
		t.Errorf("store.writes = %d, want 1", n)
	}
	if n := reg.Counter("store.verified_reads").Value(); n != 1 {
		t.Errorf("store.verified_reads = %d, want 1", n)
	}
}

func TestStoreMissIsNotExist(t *testing.T) {
	s, _ := openTestStore(t)
	_, err := s.ReadArtifact("missing.perm")
	if !os.IsNotExist(err) {
		t.Fatalf("miss error = %v, want IsNotExist", err)
	}
}

func TestStoreRejectsBadNames(t *testing.T) {
	s, _ := openTestStore(t)
	for _, name := range []string{"", "../escape", "a/b", ".tmp-x", "x.lock", "x.corrupt"} {
		if err := s.WriteArtifact(name, sampleSections()); err == nil {
			t.Errorf("name %q accepted", name)
		}
	}
}

// TestStoreQuarantinesCorruptArtifact: a verified-bad artifact must come
// back as *IntegrityError, be moved to <name>.corrupt, and be counted.
func TestStoreQuarantinesCorruptArtifact(t *testing.T) {
	s, reg := openTestStore(t)
	if err := s.WriteArtifact("a.perm", sampleSections()); err != nil {
		t.Fatal(err)
	}
	path := s.Path("a.perm")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = s.ReadArtifact("a.perm")
	var ie *IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("corrupt read error = %T (%v), want *IntegrityError", err, err)
	}
	if ie.Path != path {
		t.Errorf("IntegrityError.Path = %q, want %q", ie.Path, path)
	}
	if ie.Quarantined != path+CorruptSuffix {
		t.Errorf("IntegrityError.Quarantined = %q", ie.Quarantined)
	}
	if _, err := os.Stat(path + CorruptSuffix); err != nil {
		t.Errorf("quarantine file missing: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("corrupt artifact still under its final name: %v", err)
	}
	if n := reg.Counter("store.integrity_errors").Value(); n != 1 {
		t.Errorf("store.integrity_errors = %d, want 1", n)
	}
	if n := reg.Counter("store.quarantined").Value(); n != 1 {
		t.Errorf("store.quarantined = %d, want 1", n)
	}
	// The quarantined slot is a plain miss now: regeneration can proceed.
	if _, err := s.ReadArtifact("a.perm"); !os.IsNotExist(err) {
		t.Errorf("after quarantine, read error = %v, want IsNotExist", err)
	}
}

// eioAfter serves data up to offset failFrom and fails every read past it
// with EIO, the way a disk with a bad sector does.
type eioAfter struct {
	data     []byte
	failFrom int64
}

func (r eioAfter) Size() int64 { return int64(len(r.data)) }

func (r eioAfter) ReadAt(p []byte, off int64) (int, error) {
	if off >= r.failFrom {
		return 0, syscall.EIO
	}
	n := copy(p, r.data[off:r.failFrom])
	if n < len(p) {
		return n, syscall.EIO
	}
	return n, nil
}

// TestReadErrorIsNotIntegrityError: an I/O error while reading a sound
// container, in the header or in a payload, is returned wrapped, not as an
// *IntegrityError, so nobody quarantines the file over it.
func TestReadErrorIsNotIntegrityError(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteContainer(&buf, sampleSections()); err != nil {
		t.Fatal(err)
	}
	extents, err := readTable(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, failFrom := range []int64{0, 9, extents[1].offset} {
		_, err := ReadContainer(eioAfter{data: buf.Bytes(), failFrom: failFrom})
		var ie *IntegrityError
		if errors.As(err, &ie) || !errors.Is(err, syscall.EIO) {
			t.Errorf("EIO from offset %d: error %T (%v), want a wrapped EIO", failFrom, err, err)
		}
	}
	// A short read is still an integrity error: the bytes are not there.
	_, err = ReadContainer(bytes.NewReader(buf.Bytes()[:extents[1].offset+3]))
	var ie *IntegrityError
	if !errors.As(err, &ie) {
		t.Errorf("truncated container: error %T (%v), want *IntegrityError", err, err)
	}
}

// TestReadEIONotQuarantined: an EIO while reading a committed artifact
// leaves the sound file where it is and the integrity counters at zero;
// once the fault heals the artifact reads back intact.
func TestReadEIONotQuarantined(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	plain, err := Open(nil, dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	want := sampleSections()
	if err := plain.WriteArtifact("a.perm", want); err != nil {
		t.Fatal(err)
	}
	fault, err := vfs.NewFaultFS(vfs.OS{}, []vfs.Rule{{Op: vfs.OpRead, Kind: vfs.FaultEIO, Times: 1}})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(fault, dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.ReadArtifact("a.perm")
	var ie *IntegrityError
	if errors.As(err, &ie) || !errors.Is(err, syscall.EIO) {
		t.Fatalf("read under EIO: error %T (%v), want a wrapped EIO", err, err)
	}
	if fault.Fired() != 1 {
		t.Fatalf("fault fired %d times, want 1", fault.Fired())
	}
	path := s.Path("a.perm")
	if _, err := os.Stat(path); err != nil {
		t.Errorf("sound artifact moved: %v", err)
	}
	if _, err := os.Stat(path + CorruptSuffix); !os.IsNotExist(err) {
		t.Errorf("sound artifact quarantined: %v", err)
	}
	for _, c := range []string{"store.integrity_errors", "store.quarantined"} {
		if n := reg.Counter(c).Value(); n != 0 {
			t.Errorf("%s = %d after an I/O error, want 0", c, n)
		}
	}
	got, err := s.ReadArtifact("a.perm")
	if err != nil || len(got) != len(want) || !bytes.Equal(got[1].Data, want[1].Data) {
		t.Errorf("healed read: %d sections, error %v", len(got), err)
	}
}

func TestGetOrComputeComputesOnceThenRestores(t *testing.T) {
	s, _ := openTestStore(t)
	var computes atomic.Int32
	compute := func() ([]Section, error) {
		computes.Add(1)
		return []Section{{Name: "v", Data: []byte("payload")}}, nil
	}
	res, err := s.GetOrCompute("x.bin", true, nil, compute)
	if err != nil || res.WriteErr != nil {
		t.Fatal(err, res.WriteErr)
	}
	if res.Restored {
		t.Error("first GetOrCompute reported Restored")
	}
	res, err = s.GetOrCompute("x.bin", true, nil, compute)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Restored {
		t.Error("second GetOrCompute did not restore")
	}
	if d, _ := FindSection(res.Sections, "v"); string(d) != "payload" {
		t.Errorf("restored payload %q", d)
	}
	if n := computes.Load(); n != 1 {
		t.Errorf("compute ran %d times, want 1", n)
	}
}

func TestGetOrComputeCheckRejectionRecomputes(t *testing.T) {
	s, _ := openTestStore(t)
	if err := s.WriteArtifact("x.bin", []Section{{Name: "v", Data: []byte("old-config")}}); err != nil {
		t.Fatal(err)
	}
	check := func(sections []Section) error {
		if d, _ := FindSection(sections, "v"); string(d) != "new-config" {
			return fmt.Errorf("wrong configuration")
		}
		return nil
	}
	var computes atomic.Int32
	res, err := s.GetOrCompute("x.bin", true, check, func() ([]Section, error) {
		computes.Add(1)
		return []Section{{Name: "v", Data: []byte("new-config")}}, nil
	})
	if err != nil || res.WriteErr != nil {
		t.Fatal(err, res.WriteErr)
	}
	if res.Restored || computes.Load() != 1 {
		t.Fatalf("restored=%v computes=%d, want recompute", res.Restored, computes.Load())
	}
	// The rejected artifact was overwritten with the new configuration.
	res, err = s.GetOrCompute("x.bin", true, check, func() ([]Section, error) {
		t.Fatal("recompute after overwrite")
		return nil, nil
	})
	if err != nil || !res.Restored {
		t.Fatalf("err=%v restored=%v after overwrite", err, res.Restored)
	}
}

func TestGetOrComputeNoReuseOverwrites(t *testing.T) {
	s, _ := openTestStore(t)
	var computes atomic.Int32
	compute := func() ([]Section, error) {
		computes.Add(1)
		return []Section{{Name: "v", Data: []byte(fmt.Sprintf("run-%d", computes.Load()))}}, nil
	}
	for i := 0; i < 2; i++ {
		res, err := s.GetOrCompute("x.bin", false, nil, compute)
		if err != nil || res.WriteErr != nil || res.Restored {
			t.Fatalf("run %d: err=%v writeErr=%v restored=%v", i, err, res.WriteErr, res.Restored)
		}
	}
	if computes.Load() != 2 {
		t.Fatalf("reuse=false computed %d times, want 2", computes.Load())
	}
}

// TestGetOrComputeConcurrentSingleFlight races many goroutines with
// separate lock handles on one artifact: exactly one computes, the rest
// restore the identical bytes.
func TestGetOrComputeConcurrentSingleFlight(t *testing.T) {
	dir := t.TempDir()
	var computes atomic.Int32
	const workers = 8
	results := make([][]byte, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := Open(nil, dir, nil) // each worker: its own Store => own lock fds
			if err != nil {
				t.Error(err)
				return
			}
			res, err := s.GetOrCompute("shared.bin", true, nil, func() ([]Section, error) {
				computes.Add(1)
				time.Sleep(20 * time.Millisecond) // widen the race window
				return []Section{{Name: "v", Data: []byte("the-one-result")}}, nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			d, _ := FindSection(res.Sections, "v")
			results[i] = d
		}(i)
	}
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Errorf("%d computes across %d racing workers, want 1", n, workers)
	}
	for i, d := range results {
		if string(d) != "the-one-result" {
			t.Errorf("worker %d got %q", i, d)
		}
	}
}

func TestScanClassifiesAndGCCollects(t *testing.T) {
	s, _ := openTestStore(t)
	if err := s.WriteArtifact("good.bin", sampleSections()); err != nil {
		t.Fatal(err)
	}
	// A corrupt artifact, a foreign file, and an orphaned temp file.
	if err := s.WriteArtifact("bad.bin", sampleSections()); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(s.Path("bad.bin"))
	data[len(data)-2] ^= 0x10
	os.WriteFile(s.Path("bad.bin"), data, 0o644)
	os.WriteFile(s.Path("legacy.txt"), []byte("not a container"), 0o644)
	os.WriteFile(filepath.Join(s.Dir(), ".tmp-orphan-123"), []byte("partial"), 0o644)

	infos, err := s.Scan(false)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]string{}
	for _, in := range infos {
		kinds[in.Name] = in.Kind
		if in.Name == "bad.bin" && in.Err == nil {
			t.Error("Scan missed the corruption in bad.bin")
		}
		if in.Name == "good.bin" && (in.Err != nil || in.Sections != 3) {
			t.Errorf("good.bin: err=%v sections=%d", in.Err, in.Sections)
		}
	}
	goodLock := filepath.Base(s.lockPath("good.bin"))
	for name, want := range map[string]string{
		"good.bin": "artifact", "bad.bin": "artifact", "legacy.txt": "foreign",
		".tmp-orphan-123": "temp", goodLock: "lock",
	} {
		if kinds[name] != want {
			t.Errorf("Scan kind of %s = %q, want %q", name, kinds[name], want)
		}
	}

	// Scan with quarantine moves bad.bin aside; GC then purges it and the
	// orphaned temp file, but never lock files.
	if _, err := s.Scan(true); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(s.Path("bad.bin" + CorruptSuffix)); err != nil {
		t.Fatalf("quarantine after Scan(true): %v", err)
	}
	// A dry run reports the same candidates without deleting anything.
	planned, err := s.GC(GCOptions{TempAge: -1, PurgeCorrupt: true, DryRun: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range planned {
		if _, err := os.Stat(s.Path(name)); err != nil {
			t.Errorf("dry-run GC deleted %s: %v", name, err)
		}
	}
	removed, err := s.GC(GCOptions{TempAge: -1, PurgeCorrupt: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(planned) != len(removed) {
		t.Errorf("dry-run planned %v but GC removed %v", planned, removed)
	} else {
		for i := range planned {
			if planned[i] != removed[i] {
				t.Errorf("dry-run planned %v but GC removed %v", planned, removed)
				break
			}
		}
	}
	want := []string{".tmp-orphan-123", "bad.bin" + CorruptSuffix}
	if len(removed) != 2 || removed[0] != want[0] || removed[1] != want[1] {
		t.Errorf("GC removed %v, want %v", removed, want)
	}
	if _, err := os.Stat(s.Path("good.bin")); err != nil {
		t.Errorf("GC touched a healthy artifact: %v", err)
	}
	if _, err := os.Stat(s.Path(goodLock)); err != nil {
		t.Errorf("GC removed a lock file: %v", err)
	}
	// Fresh temp files survive the default age gate.
	os.WriteFile(filepath.Join(s.Dir(), ".tmp-live-1"), []byte("x"), 0o644)
	removed, err = s.GC(GCOptions{})
	if err != nil || len(removed) != 0 {
		t.Errorf("GC with default age removed %v (err %v)", removed, err)
	}
}
