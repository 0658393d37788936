// Package vfs is the filesystem seam of the repo: every component that
// touches disk (the artifact store, experiment checkpoints, the serving
// daemon's result cache) routes its file operations through an FS value
// instead of calling the os package directly. Production code runs on
// the OS passthrough; chaos tests swap in a FaultFS whose deterministic
// fault schedule injects ENOSPC, EIO, short writes, bit flips,
// sync-then-crash and rename-drop at chosen operation counts — fault
// classes that are untestable against a real, healthy filesystem.
// FaultFS is the repo's only file-fault injector, and WriteFileAtomic the
// one crash-safe commit protocol every file writer shares.
//
// The package also defines the Clock seam (Now/Since/After/Sleep) so
// time-dependent control loops — runctl heartbeats and retry backoff —
// can run against a manually-advanced fake clock in tests instead of
// real sleeps.
//
// vfs sits below every other internal package and depends only on the
// standard library.
package vfs

import (
	"io"
	"io/fs"
)

// File is one open file. The OS implementation is a thin wrapper over
// *os.File; fault-injecting implementations wrap another File and
// perturb its operations.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	io.ReaderAt
	io.WriterAt
	io.Seeker

	// Name returns the path the file was opened with.
	Name() string
	// Stat returns the file's metadata.
	Stat() (fs.FileInfo, error)
	// Sync flushes the file to stable storage (fsync).
	Sync() error
	// Truncate resizes the file.
	Truncate(size int64) error
	// Chmod changes the file's mode bits.
	Chmod(mode fs.FileMode) error
	// Sys exposes the innermost platform file (an *os.File for disk-backed
	// implementations, nil otherwise). The store's flock(2) locking needs
	// the real descriptor; wrappers must pass it through.
	Sys() any
}

// FS is the set of filesystem operations the repo's persistence layers
// use. Implementations must be safe for concurrent use.
type FS interface {
	// Open opens the named file for reading.
	Open(name string) (File, error)
	// OpenFile is the generalized open (os.OpenFile semantics).
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	// CreateTemp creates a new temp file in dir (os.CreateTemp semantics).
	CreateTemp(dir, pattern string) (File, error)
	// Rename atomically renames oldpath to newpath.
	Rename(oldpath, newpath string) error
	// Remove deletes the named file.
	Remove(name string) error
	// MkdirAll creates the directory path and any missing parents.
	MkdirAll(path string, perm fs.FileMode) error
	// ReadDir lists the named directory.
	ReadDir(name string) ([]fs.DirEntry, error)
	// ReadFile reads the whole named file.
	ReadFile(name string) ([]byte, error)
	// Stat returns metadata of the named file.
	Stat(name string) (fs.FileInfo, error)
}

// Of maps a nil FS to the OS passthrough, so structs can hold an
// optional FS field and use it unconditionally.
func Of(fsys FS) FS {
	if fsys == nil {
		return OS{}
	}
	return fsys
}
