package store

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"graphlocality/internal/obs"
	"graphlocality/internal/vfs"
)

// Name suffixes with reserved meaning inside a store directory.
const (
	// LockSuffix marks advisory lock files: the lock stripes, and the
	// per-artifact <name>.lock files of older builds.
	LockSuffix = ".lock"
	// CorruptSuffix marks quarantined artifacts that failed verification.
	CorruptSuffix = ".corrupt"
	// tempPrefix marks in-flight atomic-write temp files.
	tempPrefix = ".tmp-"
	// stripePrefix starts a lock stripe's name; the leading '.' keeps it
	// out of the artifact namespace (validName).
	stripePrefix = ".stripe-"
)

// lockStripes is the number of lock files that guard one store
// directory. Every process sharing the directory must map a name to the
// same stripe, so the count and the hash (CRC32C, lockPath) are part of
// the on-disk format, not settings.
const lockStripes = 256

// Store is a crash-safe artifact store rooted at one directory. All
// methods are safe for concurrent use by multiple goroutines and — via
// striped advisory file locks — by multiple processes sharing the
// directory. A nil registry disables counting.
type Store struct {
	dir string
	rec *obs.Registry
	fs  vfs.FS
}

// Open returns a store rooted at dir, creating the directory if needed,
// with every disk touch routed through fsys (nil = the OS passthrough).
// Chaos tests pass a vfs.FaultFS here so crashes, ENOSPC, EIO, torn and
// bit-flipped writes and rename-drop hit the store's real code paths.
// rec (may be nil) receives the store's counters: store.writes,
// store.verified_reads, store.integrity_errors, store.quarantined.
func Open(fsys vfs.FS, dir string, rec *obs.Registry) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty directory")
	}
	fsys = vfs.Of(fsys)
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Store{dir: dir, rec: rec, fs: fsys}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// FS returns the filesystem the store routes its disk operations
// through (never nil).
func (s *Store) FS() vfs.FS { return s.fs }

// validName rejects artifact names that could escape the directory or
// collide with the store's reserved file classes.
func validName(name string) error {
	switch {
	case name == "":
		return errors.New("store: empty artifact name")
	case strings.ContainsAny(name, "/\\"), name != filepath.Base(name):
		return fmt.Errorf("store: artifact name %q contains a path separator", name)
	case strings.HasPrefix(name, "."):
		return fmt.Errorf("store: artifact name %q starts with '.' (reserved for temp files)", name)
	case strings.HasSuffix(name, LockSuffix), strings.HasSuffix(name, CorruptSuffix):
		return fmt.Errorf("store: artifact name %q uses a reserved suffix", name)
	}
	return nil
}

// Path returns the on-disk path of the named artifact.
func (s *Store) Path(name string) string { return filepath.Join(s.dir, name) }

// lockPath returns the lock stripe that guards the named artifact:
// .stripe-XX.lock, XX the low byte of the name's CRC32C in hex (lock.go
// says why artifacts share stripes). Each stripe is created by its first
// lock acquisition.
func (s *Store) lockPath(name string) string {
	stripe := byte(crc32.Checksum([]byte(name), Castagnoli) % lockStripes)
	return filepath.Join(s.dir, fmt.Sprintf("%s%02x%s", stripePrefix, stripe, LockSuffix))
}

// WriteArtifact atomically writes sections as the named artifact under
// the artifact's exclusive lock: readers block (or see the previous
// version) until the new version is fully committed, never a torn file.
func (s *Store) WriteArtifact(name string, sections []Section) error {
	if err := validName(name); err != nil {
		return err
	}
	lock, err := LockExclusive(s.fs, s.lockPath(name))
	if err != nil {
		return err
	}
	defer lock.Unlock()
	return s.writeLocked(name, sections)
}

// writeLocked performs the atomic container write; the caller must hold
// the artifact's exclusive lock.
func (s *Store) writeLocked(name string, sections []Section) error {
	err := vfs.WriteFileAtomic(s.fs, s.Path(name), func(w io.Writer) error {
		return WriteContainer(w, sections)
	})
	if err != nil {
		return err
	}
	s.rec.Counter("store.writes").Inc()
	return nil
}

// ReadArtifact reads and fully verifies the named artifact under its
// shared lock. A verification failure quarantines the file to
// <name>.corrupt, bumps the store's integrity counters and returns a
// typed *IntegrityError; os.IsNotExist(err) distinguishes a plain miss,
// and an I/O error comes back wrapped, with the file left in place.
func (s *Store) ReadArtifact(name string) ([]Section, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	lock, err := LockShared(s.fs, s.lockPath(name))
	if err != nil {
		return nil, err
	}
	defer lock.Unlock()
	return s.readLocked(name)
}

// readLocked verifies and returns the artifact; the caller must hold the
// artifact's lock (either mode: quarantine's rename is atomic and
// concurrent readers of the same corrupt file race benignly — one
// renames, the rest miss).
func (s *Store) readLocked(name string) ([]Section, error) {
	path := s.Path(name)
	f, err := s.fs.Open(path)
	if err != nil {
		return nil, err
	}
	r, err := sized(f)
	var sections []Section
	if err == nil {
		sections, err = ReadContainer(r)
	}
	f.Close()
	if err != nil {
		return nil, s.quarantine(path, err)
	}
	s.rec.Counter("store.verified_reads").Inc()
	return sections, nil
}

// Quarantine is the one rule for a file that failed verification. For a
// typed *IntegrityError it sets Path and, when fsys (nil = the OS
// passthrough) reports a regular file at path, renames the file to
// path+CorruptSuffix: the evidence is kept while the next run
// regenerates instead of tripping over it. Quarantined is set only when
// that rename succeeded, so a device node or a directory handed in as an
// input is reported, never moved. Other errors pass through unchanged.
func Quarantine(fsys vfs.FS, path string, err error) error {
	var ie *IntegrityError
	if !errors.As(err, &ie) {
		return err
	}
	ie.Path = path
	fsys = vfs.Of(fsys)
	if fi, serr := fsys.Stat(path); serr == nil && fi.Mode().IsRegular() {
		if fsys.Rename(path, path+CorruptSuffix) == nil {
			ie.Quarantined = path + CorruptSuffix
		}
	}
	return ie
}

// quarantine applies Quarantine to a failed read of path and counts the
// outcome in store.integrity_errors and store.quarantined.
func (s *Store) quarantine(path string, err error) error {
	err = Quarantine(s.fs, path, err)
	var ie *IntegrityError
	if errors.As(err, &ie) {
		s.rec.Counter("store.integrity_errors").Inc()
		if ie.Quarantined != "" {
			s.rec.Counter("store.quarantined").Inc()
		}
	}
	return err
}

// GetResult is GetOrCompute's outcome.
type GetResult struct {
	// Sections is the artifact's verified (or freshly computed) content.
	Sections []Section
	// Restored is true when the content came from a verified on-disk
	// artifact — ours from an earlier run or a peer's from this one —
	// rather than from compute.
	Restored bool
	// WriteErr is non-nil when compute succeeded but the write-through
	// failed: the result is still usable, it just is not persisted.
	// Simulated crashes surface here too.
	WriteErr error
}

// GetOrCompute returns the named artifact, computing it at most once
// across all processes sharing the store:
//
//  1. With reuse set, an optimistic verified read (shared lock) returns
//     an existing artifact immediately.
//  2. Otherwise the artifact's exclusive lock is taken — serializing
//     with any peer computing the same artifact, or another artifact of
//     the same lock stripe — and, with reuse set,
//     the artifact is re-checked: a peer that won the race has already
//     written it, so it is read instead of recomputed.
//  3. Only then is compute run and its output written through, still
//     under the lock.
//
// check (may be nil) validates a read artifact's content beyond
// integrity — e.g. "right vertex count"; a check failure is treated as
// a miss (the artifact is for a different configuration, not corrupt)
// and the artifact is recomputed and overwritten. Integrity failures
// quarantine and count exactly as in ReadArtifact, then regenerate.
// With reuse false, existing artifacts are ignored and overwritten —
// the write-through-only mode of a non-resume run.
//
// compute runs under the stripe lock and must not call the store: an
// artifact of the same stripe would wait on a lock its own caller holds.
//
// A process of an older build, which locks <name>.lock instead of the
// stripe, shares no lock with this one. At worst the two compute an
// artifact twice; each write is an atomic rename, so the artifact is
// never torn.
func (s *Store) GetOrCompute(name string, reuse bool, check func([]Section) error, compute func() ([]Section, error)) (GetResult, error) {
	if err := validName(name); err != nil {
		return GetResult{}, err
	}
	tryRead := func(locked bool) ([]Section, bool) {
		var sections []Section
		var err error
		if locked {
			sections, err = s.readLocked(name)
		} else {
			sections, err = s.ReadArtifact(name)
		}
		if err != nil {
			return nil, false
		}
		if check != nil {
			if err := check(sections); err != nil {
				return nil, false
			}
		}
		return sections, true
	}
	if reuse {
		if sections, ok := tryRead(false); ok {
			return GetResult{Sections: sections, Restored: true}, nil
		}
	}
	lock, err := LockExclusive(s.fs, s.lockPath(name))
	if err != nil {
		return GetResult{}, err
	}
	defer lock.Unlock()
	if reuse {
		if sections, ok := tryRead(true); ok {
			return GetResult{Sections: sections, Restored: true}, nil
		}
	}
	sections, err := compute()
	if err != nil {
		return GetResult{}, err
	}
	res := GetResult{Sections: sections}
	res.WriteErr = s.writeLocked(name, sections)
	return res, nil
}

// ArtifactInfo describes one file of a store directory as seen by the
// maintenance commands.
type ArtifactInfo struct {
	// Name is the file name relative to the store directory.
	Name string
	// Size in bytes.
	Size int64
	// Kind classifies the file: "artifact", "temp", "lock", "corrupt",
	// or "foreign" (present but not a store container).
	Kind string
	// Sections counts a verified artifact's sections.
	Sections int
	// Err is the verification failure for corrupt artifacts (nil for
	// verified ones and for non-artifact files).
	Err error
}

// Scan classifies every file in the store directory, verifying each
// artifact-class file's checksums (without quarantining — Scan is a
// read-only diagnosis; pass quarantine to move verified-bad artifacts
// aside like ReadArtifact would). Entries come back sorted by name.
func (s *Store) Scan(quarantine bool) ([]ArtifactInfo, error) {
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var infos []ArtifactInfo
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		fi, err := e.Info()
		if err != nil {
			continue
		}
		info := ArtifactInfo{Name: name, Size: fi.Size()}
		switch {
		case strings.HasPrefix(name, tempPrefix):
			info.Kind = "temp"
		case strings.HasSuffix(name, LockSuffix):
			info.Kind = "lock"
		case strings.HasSuffix(name, CorruptSuffix):
			info.Kind = "corrupt"
		default:
			data, err := s.fs.ReadFile(s.Path(name))
			if err != nil {
				info.Kind = "foreign"
				info.Err = err
				break
			}
			if !IsContainer(data) {
				info.Kind = "foreign"
				break
			}
			info.Kind = "artifact"
			sections, err := ReadContainer(bytes.NewReader(data))
			if err != nil {
				info.Err = err
				if quarantine {
					info.Err = s.quarantine(s.Path(name), err)
				}
			} else {
				info.Sections = len(sections)
			}
		}
		infos = append(infos, info)
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos, nil
}

// GCOptions configures GC.
type GCOptions struct {
	// TempAge is the minimum age before an orphaned ".tmp-*" file is
	// collected; live writes are seconds long, so the default one hour
	// can only catch files a dead process left behind. Negative
	// collects regardless of age (tests).
	TempAge time.Duration
	// PurgeCorrupt also removes quarantined ".corrupt" files (the
	// evidence is otherwise kept for inspection).
	PurgeCorrupt bool
	// DryRun lists what GC would remove without deleting anything.
	DryRun bool
}

// GC removes debris a crashed process can leave behind: orphaned atomic-
// write temp files older than TempAge and, on request, quarantined
// corrupt artifacts. Lock files are deliberately never removed —
// unlinking a lock file a peer still holds would hand later acquirers a
// fresh inode and break mutual exclusion. They stay bounded anyway: at
// most lockStripes stripes per directory, plus the <name>.lock files an
// older build left behind, which are kept like the stripes. Returns the removed names —
// or, with DryRun set, the names that would have been removed.
func (s *Store) GC(opts GCOptions) ([]string, error) {
	if opts.TempAge == 0 {
		opts.TempAge = time.Hour
	}
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var removed []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		switch {
		case strings.HasPrefix(name, tempPrefix):
			fi, err := e.Info()
			if err != nil {
				continue
			}
			if opts.TempAge > 0 && time.Since(fi.ModTime()) < opts.TempAge {
				continue
			}
		case strings.HasSuffix(name, CorruptSuffix):
			if !opts.PurgeCorrupt {
				continue
			}
		default:
			continue
		}
		if opts.DryRun {
			removed = append(removed, name)
			continue
		}
		if err := s.fs.Remove(s.Path(name)); err == nil {
			removed = append(removed, name)
		}
	}
	sort.Strings(removed)
	return removed, nil
}
