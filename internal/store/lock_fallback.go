package store

import (
	"os"
	"sync"

	"graphlocality/internal/vfs"
)

// Fallback locking for environments without flock(2) — non-unix
// platforms, and filesystems whose files are not OS-backed: a
// process-local reader/writer lock per lock-file path, so at most one
// per stripe, 256 per store directory. In-process
// semantics (the ones the test suite exercises) are identical to the
// unix implementation; cross-process exclusion is not provided, so
// concurrent *processes* sharing a cache directory are only safe on
// unix. This file compiles on every platform so the fallback path stays
// under test even on unix CI (lock_fallback_test.go drives it directly);
// lock_other.go wires it up as the acquireLock implementation where
// flock does not exist.

var (
	fallbackMu    sync.Mutex
	fallbackLocks = map[string]*sync.RWMutex{}
)

func fallbackLock(path string) *sync.RWMutex {
	fallbackMu.Lock()
	defer fallbackMu.Unlock()
	mu, ok := fallbackLocks[path]
	if !ok {
		mu = &sync.RWMutex{}
		fallbackLocks[path] = mu
	}
	return mu
}

type fallbackHandle struct {
	mu        *sync.RWMutex
	exclusive bool
}

func (h *fallbackHandle) release() error {
	if h.exclusive {
		h.mu.Unlock()
	} else {
		h.mu.RUnlock()
	}
	return nil
}

func acquireFallbackLock(fsys vfs.FS, path string, exclusive, block bool) (lockHandle, error) {
	// Touch the lock file so directory listings look the same as on unix.
	if f, err := vfs.Of(fsys).OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644); err == nil {
		f.Close()
	}
	mu := fallbackLock(path)
	switch {
	case exclusive && block:
		mu.Lock()
	case exclusive && !block:
		if !mu.TryLock() {
			return nil, nil
		}
	case !exclusive && block:
		mu.RLock()
	default:
		if !mu.TryRLock() {
			return nil, nil
		}
	}
	return &fallbackHandle{mu: mu, exclusive: exclusive}, nil
}
