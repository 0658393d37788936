package store

import (
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func lockFile(t *testing.T) string {
	return filepath.Join(t.TempDir(), "a.bin.lock")
}

func TestExclusiveLockExcludesEverything(t *testing.T) {
	path := lockFile(t)
	l, err := LockExclusive(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := TryLockExclusive(path); err != nil {
		t.Fatal(err)
	} else if ok {
		t.Fatal("second exclusive lock acquired while the first is held")
	}
	if err := l.Unlock(); err != nil {
		t.Fatal(err)
	}
	l2, ok, err := TryLockExclusive(path)
	if err != nil || !ok {
		t.Fatalf("lock not reacquirable after Unlock: ok=%v err=%v", ok, err)
	}
	l2.Unlock()
}

func TestSharedLocksCoexistButBlockWriters(t *testing.T) {
	path := lockFile(t)
	r1, err := LockShared(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := LockShared(nil, path)
	if err != nil {
		t.Fatalf("second shared lock blocked: %v", err)
	}
	if _, ok, err := TryLockExclusive(path); err != nil {
		t.Fatal(err)
	} else if ok {
		t.Fatal("exclusive lock acquired while readers hold the lock")
	}
	r1.Unlock()
	r2.Unlock()
	w, ok, err := TryLockExclusive(path)
	if err != nil || !ok {
		t.Fatalf("writer still blocked after readers left: ok=%v err=%v", ok, err)
	}
	w.Unlock()
}

// TestWriterBlocksUntilReaderLeaves proves the blocking path (not just
// try-lock) hands over correctly.
func TestWriterBlocksUntilReaderLeaves(t *testing.T) {
	path := lockFile(t)
	r, err := LockShared(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	var acquired atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		w, err := LockExclusive(nil, path)
		if err != nil {
			t.Error(err)
			return
		}
		acquired.Store(true)
		w.Unlock()
	}()
	time.Sleep(50 * time.Millisecond)
	if acquired.Load() {
		t.Fatal("writer acquired the lock while a reader held it")
	}
	r.Unlock()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("writer never acquired the lock after the reader left")
	}
	if !acquired.Load() {
		t.Fatal("writer goroutine exited without the lock")
	}
}

// TestNoDeadlockAcrossArtifacts: the lock hierarchy is flat (one lock
// per operation, never nested), so workers hammering two artifacts in
// opposite orders must always terminate. Run with -race.
func TestNoDeadlockAcrossArtifacts(t *testing.T) {
	dir := t.TempDir()
	pathA := filepath.Join(dir, "a.lock")
	pathB := filepath.Join(dir, "b.lock")
	var wg sync.WaitGroup
	finished := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			order := []string{pathA, pathB}
			if i%2 == 1 {
				order[0], order[1] = order[1], order[0]
			}
			for iter := 0; iter < 50; iter++ {
				for _, p := range order {
					l, err := LockExclusive(nil, p)
					if err != nil {
						t.Error(err)
						return
					}
					l.Unlock() // released before the next acquire: flat hierarchy
				}
			}
		}(i)
	}
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		t.Fatal("lock workers deadlocked")
	}
}

func TestUnlockNilIsSafe(t *testing.T) {
	var l *FileLock
	if err := l.Unlock(); err != nil {
		t.Fatal(err)
	}
}
