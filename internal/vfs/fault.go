package vfs

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sync"
	"syscall"
)

// ErrInjectedCrash is the error a FaultCrash rule returns. It means "the
// process died right here": instrumented write paths must unwind without
// cleanup so the on-disk state is exactly what a SIGKILL at that instant
// would leave.
var ErrInjectedCrash = errors.New("vfs: injected crash")

// Op classifies filesystem operations for fault matching.
type Op string

const (
	// OpOpen is a read-only open (FS.Open, or OpenFile without O_CREATE).
	OpOpen Op = "open"
	// OpCreate is a creating open (OpenFile with O_CREATE, CreateTemp).
	OpCreate Op = "create"
	// OpRead is a data read (File.Read/ReadAt, FS.ReadFile).
	OpRead Op = "read"
	// OpWrite is a data write (File.Write/WriteAt).
	OpWrite Op = "write"
	// OpSync is File.Sync (fsync).
	OpSync Op = "sync"
	// OpRename is FS.Rename.
	OpRename Op = "rename"
	// OpRemove is FS.Remove.
	OpRemove Op = "remove"
	// OpReadDir is FS.ReadDir.
	OpReadDir Op = "readdir"
	// OpMkdir is FS.MkdirAll.
	OpMkdir Op = "mkdir"
)

// Ops returns every fault-matchable operation class (the chaos schedule
// generator and grammar validation iterate this).
func Ops() []Op {
	return []Op{OpOpen, OpCreate, OpRead, OpWrite, OpSync, OpRename, OpRemove, OpReadDir, OpMkdir}
}

// ParseOp validates an operation-class name.
func ParseOp(s string) (Op, error) {
	for _, op := range Ops() {
		if string(op) == s {
			return op, nil
		}
	}
	return "", fmt.Errorf("vfs: unknown operation class %q", s)
}

// FaultKind selects what a matching rule does to the operation.
type FaultKind int

const (
	// FaultENOSPC fails the operation with syscall.ENOSPC (disk full).
	FaultENOSPC FaultKind = iota
	// FaultEIO fails the operation with syscall.EIO (media error).
	FaultEIO
	// FaultShortWrite makes a write persist only the first half of its
	// buffer while reporting complete success — a lying short write. The
	// damage must be caught by a verified read later, never by the writer.
	// Write operations only.
	FaultShortWrite
	// FaultCrash aborts the operation with ErrInjectedCrash, modelling
	// process death at that exact operation. On OpSync the file is
	// additionally truncated to half its size first (sync-then-crash: the
	// page cache was half-flushed when power was lost).
	FaultCrash
	// FaultRenameDrop makes a rename report success without renaming —
	// the commit the filesystem lost at power-cut. Rename operations only.
	FaultRenameDrop
	// FaultFlip makes a write persist its whole buffer with one bit
	// flipped (bit 0 of the middle byte) while reporting success — silent
	// media corruption of the same length. Write operations only.
	FaultFlip
)

var faultKindNames = map[FaultKind]string{
	FaultENOSPC:     "enospc",
	FaultEIO:        "eio",
	FaultShortWrite: "short",
	FaultCrash:      "crash",
	FaultRenameDrop: "drop",
	FaultFlip:       "flip",
}

// String returns the grammar name of the kind.
func (k FaultKind) String() string {
	if s, ok := faultKindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// ParseFaultKind maps a grammar name back to its kind.
func ParseFaultKind(s string) (FaultKind, error) {
	for k, name := range faultKindNames {
		if name == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("vfs: unknown fault kind %q (want enospc, eio, short, crash, drop or flip)", s)
}

// Rule is one deterministic fault: the Skip+1-th through Skip+Times-th
// operations of class Op (counted across the FaultFS's lifetime) suffer
// Kind. Counting is per rule, so two rules on the same class skip and
// heal independently.
type Rule struct {
	Op   Op
	Kind FaultKind
	// Skip is how many matching operations pass unharmed before the rule
	// starts firing.
	Skip int
	// Times is how many operations the rule fires on before healing
	// (0 = every match after Skip).
	Times int
}

// Validate rejects kind/op combinations that have no meaning.
func (r Rule) Validate() error {
	if _, err := ParseOp(string(r.Op)); err != nil {
		return err
	}
	switch {
	case (r.Kind == FaultShortWrite || r.Kind == FaultFlip) && r.Op != OpWrite:
		return fmt.Errorf("vfs: %v fault applies only to write operations, not %s", r.Kind, r.Op)
	case r.Kind == FaultRenameDrop && r.Op != OpRename:
		return fmt.Errorf("vfs: drop fault applies only to rename operations, not %s", r.Op)
	case r.Skip < 0:
		return fmt.Errorf("vfs: negative skip %d", r.Skip)
	case r.Times < 0:
		return fmt.Errorf("vfs: negative times %d", r.Times)
	}
	return nil
}

// String renders the rule in the chaos schedule grammar
// (vfs.<op>=<kind>[*times][@skip]).
func (r Rule) String() string {
	s := "vfs." + string(r.Op) + "=" + r.Kind.String()
	if r.Times > 0 {
		s += fmt.Sprintf("*%d", r.Times)
	}
	if r.Skip > 0 {
		s += fmt.Sprintf("@%d", r.Skip)
	}
	return s
}

type ruleState struct {
	rule  Rule
	seen  int
	fired int
}

// FaultFS wraps an inner FS and applies a deterministic fault schedule:
// given the same rules and the same sequence of operations, the same
// operations fail in the same way — the property that makes chaos
// schedules replayable from a seed. Safe for concurrent use (operation
// counting is serialized).
type FaultFS struct {
	inner FS
	mu    sync.Mutex
	rules []*ruleState
	fired int
}

// NewFaultFS wraps inner with the given rules. Invalid rules are
// reported immediately rather than silently never matching.
func NewFaultFS(inner FS, rules []Rule) (*FaultFS, error) {
	f := &FaultFS{inner: Of(inner)}
	for _, r := range rules {
		if err := r.Validate(); err != nil {
			return nil, err
		}
		f.rules = append(f.rules, &ruleState{rule: r})
	}
	return f, nil
}

// Fired reports how many operations have faulted so far.
func (f *FaultFS) Fired() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fired
}

// hit records one operation of class op and returns the fault to apply,
// if any. The first rule (in registration order) whose window covers
// this occurrence wins; every rule of the class still counts the
// occurrence, so windows stay deterministic regardless of which fired.
func (f *FaultFS) hit(op Op) (FaultKind, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var winner *ruleState
	for _, st := range f.rules {
		if st.rule.Op != op {
			continue
		}
		st.seen++
		trigger := st.seen > st.rule.Skip && (st.rule.Times == 0 || st.fired < st.rule.Times)
		if trigger && winner == nil {
			st.fired++
			winner = st
		}
	}
	if winner == nil {
		return 0, false
	}
	f.fired++
	return winner.rule.Kind, true
}

// errFor maps a fault kind to the error the operation reports.
func errFor(kind FaultKind, op Op, path string) error {
	switch kind {
	case FaultENOSPC:
		return &fs.PathError{Op: string(op), Path: path, Err: syscall.ENOSPC}
	case FaultEIO:
		return &fs.PathError{Op: string(op), Path: path, Err: syscall.EIO}
	case FaultCrash:
		return ErrInjectedCrash
	default:
		// Semantic kinds (short, drop, flip) are handled at their call sites;
		// reaching here is an instrumentation bug worth surfacing loudly.
		return &fs.PathError{Op: string(op), Path: path, Err: fmt.Errorf("vfs: fault %v misapplied", kind)}
	}
}

func (f *FaultFS) Open(name string) (File, error) {
	if kind, ok := f.hit(OpOpen); ok {
		return nil, errFor(kind, OpOpen, name)
	}
	inner, err := f.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: inner}, nil
}

func (f *FaultFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	op := OpOpen
	if flag&os.O_CREATE != 0 {
		op = OpCreate
	}
	if kind, ok := f.hit(op); ok {
		return nil, errFor(kind, op, name)
	}
	inner, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: inner}, nil
}

func (f *FaultFS) CreateTemp(dir, pattern string) (File, error) {
	if kind, ok := f.hit(OpCreate); ok {
		return nil, errFor(kind, OpCreate, dir+"/"+pattern)
	}
	inner, err := f.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: inner}, nil
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	if kind, ok := f.hit(OpRename); ok {
		if kind == FaultRenameDrop {
			// Report success, do nothing: the rename the disk lost.
			return nil
		}
		return errFor(kind, OpRename, oldpath)
	}
	return f.inner.Rename(oldpath, newpath)
}

func (f *FaultFS) Remove(name string) error {
	if kind, ok := f.hit(OpRemove); ok {
		return errFor(kind, OpRemove, name)
	}
	return f.inner.Remove(name)
}

func (f *FaultFS) MkdirAll(path string, perm fs.FileMode) error {
	if kind, ok := f.hit(OpMkdir); ok {
		return errFor(kind, OpMkdir, path)
	}
	return f.inner.MkdirAll(path, perm)
}

func (f *FaultFS) ReadDir(name string) ([]fs.DirEntry, error) {
	if kind, ok := f.hit(OpReadDir); ok {
		return nil, errFor(kind, OpReadDir, name)
	}
	return f.inner.ReadDir(name)
}

func (f *FaultFS) ReadFile(name string) ([]byte, error) {
	if kind, ok := f.hit(OpRead); ok {
		return nil, errFor(kind, OpRead, name)
	}
	return f.inner.ReadFile(name)
}

func (f *FaultFS) Stat(name string) (fs.FileInfo, error) {
	return f.inner.Stat(name)
}

// faultFile routes a file's data-path operations back through the
// FaultFS's schedule.
type faultFile struct {
	fs    *FaultFS
	inner File
}

func (f *faultFile) Name() string                 { return f.inner.Name() }
func (f *faultFile) Stat() (fs.FileInfo, error)   { return f.inner.Stat() }
func (f *faultFile) Close() error                 { return f.inner.Close() }
func (f *faultFile) Truncate(size int64) error    { return f.inner.Truncate(size) }
func (f *faultFile) Chmod(mode fs.FileMode) error { return f.inner.Chmod(mode) }
func (f *faultFile) Seek(offset int64, whence int) (int64, error) {
	return f.inner.Seek(offset, whence)
}

// Sys passes the innermost descriptor through, so flock-based locking
// keeps working (and stays interceptable) under a FaultFS.
func (f *faultFile) Sys() any { return f.inner.Sys() }

func (f *faultFile) Read(p []byte) (int, error) {
	if kind, ok := f.fs.hit(OpRead); ok {
		return 0, errFor(kind, OpRead, f.inner.Name())
	}
	return f.inner.Read(p)
}

func (f *faultFile) ReadAt(p []byte, off int64) (int, error) {
	if kind, ok := f.fs.hit(OpRead); ok {
		return 0, errFor(kind, OpRead, f.inner.Name())
	}
	return f.inner.ReadAt(p, off)
}

// lie returns the bytes a lying write fault persists in place of p —
// short: the first half; flip: all of p with bit 0 of its middle byte
// flipped — or ok=false when kind fails the write outright.
func lie(kind FaultKind, p []byte) (persist []byte, ok bool) {
	switch kind {
	case FaultShortWrite:
		return p[:len(p)/2], true
	case FaultFlip:
		persist = append([]byte(nil), p...)
		if len(persist) > 0 {
			persist[len(persist)/2] ^= 0x01
		}
		return persist, true
	}
	return nil, false
}

// Write and WriteAt apply lying faults (short, flip) by persisting the
// damaged bytes and reporting complete success: the damage lands on disk
// and only a verified read can catch it.
func (f *faultFile) Write(p []byte) (int, error) {
	if kind, ok := f.fs.hit(OpWrite); ok {
		persist, lies := lie(kind, p)
		if !lies {
			return 0, errFor(kind, OpWrite, f.inner.Name())
		}
		if _, err := f.inner.Write(persist); err != nil {
			return 0, err
		}
		return len(p), nil
	}
	return f.inner.Write(p)
}

func (f *faultFile) WriteAt(p []byte, off int64) (int, error) {
	if kind, ok := f.fs.hit(OpWrite); ok {
		persist, lies := lie(kind, p)
		if !lies {
			return 0, errFor(kind, OpWrite, f.inner.Name())
		}
		if _, err := f.inner.WriteAt(persist, off); err != nil {
			return 0, err
		}
		return len(p), nil
	}
	return f.inner.WriteAt(p, off)
}

func (f *faultFile) Sync() error {
	if kind, ok := f.fs.hit(OpSync); ok {
		if kind == FaultCrash {
			// Sync-then-crash: the process dies mid-fsync with the page
			// cache half-flushed — truncate to half, then report the death.
			if info, err := f.inner.Stat(); err == nil {
				_ = f.inner.Truncate(info.Size() / 2)
			}
			return ErrInjectedCrash
		}
		return errFor(kind, OpSync, f.inner.Name())
	}
	return f.inner.Sync()
}
