package runctl

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Failpoints let tests force panics, hangs and transient errors at named
// stages to prove the run-control layer end-to-end. Production code calls
// Fire at instrumented points; with no injections active that is a single
// atomic load. Inject is intended for tests only — nothing in the
// non-test tree calls it.

// FailMode selects what an injected failpoint does when fired.
type FailMode int

const (
	// FailPanic panics with the failpoint's value.
	FailPanic FailMode = iota
	// FailError returns the failpoint's error (non-retryable).
	FailError
	// FailTransient returns the failpoint's error marked Transient.
	FailTransient
	// FailHang blocks until the firing context is done (or HangFor
	// elapses), simulating a hung stage.
	FailHang
)

// Failpoint describes one injected fault.
type Failpoint struct {
	Mode FailMode
	// Times is how many firings trigger the fault (0 = every firing).
	// After Times triggers the failpoint keeps counting but stops failing,
	// which models transient faults that heal.
	Times int
	// Err is the error returned for FailError/FailTransient (a default is
	// supplied when nil).
	Err error
	// Panic is the value FailPanic panics with (default: the name).
	Panic any
	// HangFor bounds FailHang when the context never dies (0 = until ctx).
	HangFor time.Duration
}

var (
	fpActive atomic.Bool
	fpMu     sync.Mutex
	fpTable  map[string]*fpState
)

type fpState struct {
	fp    Failpoint
	hits  int // firings that reached this failpoint
	fired int // firings that actually faulted
}

// Inject registers a failpoint under name and returns a remover. Tests
// only. Re-injecting a name replaces it (hit counters reset).
func Inject(name string, fp Failpoint) (remove func()) {
	fpMu.Lock()
	defer fpMu.Unlock()
	if fpTable == nil {
		fpTable = make(map[string]*fpState)
	}
	fpTable[name] = &fpState{fp: fp}
	fpActive.Store(true)
	return func() {
		fpMu.Lock()
		defer fpMu.Unlock()
		delete(fpTable, name)
		fpActive.Store(len(fpTable) > 0)
	}
}

// HitCount reports how many times the named failpoint was reached (fired
// or not) — the counter resume tests use to assert a checkpointed stage
// was never re-entered.
func HitCount(name string) int {
	fpMu.Lock()
	defer fpMu.Unlock()
	if st, ok := fpTable[name]; ok {
		return st.hits
	}
	return 0
}

// Fire triggers the named failpoint if one is injected. The fast path
// (no injections anywhere) is one atomic load. Instrumented stages call
// it at entry; the error (or panic) it produces flows through the
// Controller like any organic stage failure. Failpoints fault stages
// only; file faults are injected at the filesystem seam (vfs.FaultFS).
func Fire(ctx context.Context, name string) error {
	if !fpActive.Load() {
		return nil
	}
	fpMu.Lock()
	st, ok := fpTable[name]
	if !ok {
		fpMu.Unlock()
		return nil
	}
	st.hits++
	trigger := st.fp.Times == 0 || st.fired < st.fp.Times
	if trigger {
		st.fired++
	}
	fp := st.fp
	fpMu.Unlock()
	if !trigger {
		return nil
	}
	switch fp.Mode {
	case FailPanic:
		v := fp.Panic
		if v == nil {
			v = "failpoint " + name
		}
		panic(v)
	case FailTransient:
		return Transient(fpErr(fp, name))
	case FailHang:
		var timeout <-chan time.Time
		if fp.HangFor > 0 {
			t := time.NewTimer(fp.HangFor)
			defer t.Stop()
			timeout = t.C
		}
		var done <-chan struct{}
		if ctx != nil {
			done = ctx.Done()
		}
		select {
		case <-done:
			return ErrCanceled
		case <-timeout:
			return nil
		}
	default:
		return fpErr(fp, name)
	}
}

func fpErr(fp Failpoint, name string) error {
	if fp.Err != nil {
		return fp.Err
	}
	return &failpointError{name: name}
}

// failpointError is the default injected error.
type failpointError struct{ name string }

func (e *failpointError) Error() string { return "failpoint " + e.name }
