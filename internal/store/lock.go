package store

import "graphlocality/internal/vfs"

// Advisory artifact locking. A store directory's artifacts are guarded
// by 256 lock stripes, .stripe-00.lock to .stripe-ff.lock, one chosen by
// the low byte of the artifact name's CRC32C (Store.lockPath): writers
// hold it exclusively, readers hold it shared, so concurrent processes
// sharing one cache directory never observe each other mid-write and at
// most one of them computes a given artifact (GetOrCompute). Stripes
// replace the older per-artifact <name>.lock sidecar because creating a
// file costs an inode (40-560 µs of CPU on ext4, against ~5 µs to open
// an existing one), and that create sat on every miss; a stripe is
// created once, by its first acquisition, and the lock files of a
// directory stay bounded at 256. Two artifacts of one stripe serialize,
// which costs time, never correctness.
//
// Lock hierarchy (DESIGN.md §11): locks are leaf-level — a holder never
// acquires a second store lock while holding one, so there is no
// ordering to violate and no deadlock cycle to form. That is why a
// GetOrCompute compute must not call the store: its artifact may share
// the stripe the caller holds. Lock files are never deleted (deleting a
// lock file while a peer holds its inode would split later acquirers
// onto a fresh inode and silently break mutual exclusion), which is why
// GC leaves them alone.
//
// The implementation is flock(2) on unix (lock_unix.go); elsewhere a
// process-local reader/writer lock keeps in-process semantics correct
// (lock_fallback.go) without cross-process protection.

// FileLock is one held advisory lock. Release it with Unlock; a process
// death releases it automatically (the kernel drops flock locks when the
// last descriptor closes).
type FileLock struct {
	handle lockHandle
	path   string
}

// Path returns the lock file's path.
func (l *FileLock) Path() string { return l.path }

// Unlock releases the lock. Safe to call on a nil lock.
func (l *FileLock) Unlock() error {
	if l == nil {
		return nil
	}
	return l.handle.release()
}

// LockShared acquires the advisory lock at path in shared (reader) mode,
// blocking while a writer holds it. The lock file is opened through fsys
// (nil = the OS passthrough), so a fault-injecting filesystem can fail
// lock acquisition too.
func LockShared(fsys vfs.FS, path string) (*FileLock, error) {
	h, err := acquireLock(fsys, path, false, true)
	if err != nil {
		return nil, err
	}
	return &FileLock{handle: h, path: path}, nil
}

// LockExclusive acquires the advisory lock at path in exclusive (writer)
// mode, blocking while any reader or writer holds it. The lock file is
// opened through fsys (nil = the OS passthrough).
func LockExclusive(fsys vfs.FS, path string) (*FileLock, error) {
	h, err := acquireLock(fsys, path, true, true)
	if err != nil {
		return nil, err
	}
	return &FileLock{handle: h, path: path}, nil
}

// TryLockExclusive attempts the exclusive lock without blocking. ok is
// false when another holder has it.
func TryLockExclusive(path string) (l *FileLock, ok bool, err error) {
	h, err := acquireLock(nil, path, true, false)
	if err != nil {
		return nil, false, err
	}
	if h == nil {
		return nil, false, nil
	}
	return &FileLock{handle: h, path: path}, true, nil
}

// lockHandle is the platform half of a FileLock.
type lockHandle interface {
	release() error
}
