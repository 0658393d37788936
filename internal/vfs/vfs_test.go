package vfs

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

func TestOSPassthroughRoundTrip(t *testing.T) {
	dir := t.TempDir()
	fsys := Of(nil) // nil maps to OS
	path := filepath.Join(dir, "a.txt")

	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if _, ok := f.Sys().(*os.File); !ok {
		t.Fatalf("Sys() = %T, want *os.File", f.Sys())
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	got, err := fsys.ReadFile(path)
	if err != nil || string(got) != "hello" {
		t.Fatalf("ReadFile = %q, %v", got, err)
	}
	dst := filepath.Join(dir, "b.txt")
	if err := fsys.Rename(path, dst); err != nil {
		t.Fatalf("Rename: %v", err)
	}
	ents, err := fsys.ReadDir(dir)
	if err != nil || len(ents) != 1 || ents[0].Name() != "b.txt" {
		t.Fatalf("ReadDir = %v, %v", ents, err)
	}
	if err := fsys.Remove(dst); err != nil {
		t.Fatalf("Remove: %v", err)
	}
}

func TestFaultENOSPCAndHealing(t *testing.T) {
	dir := t.TempDir()
	// Second write fails with ENOSPC once, then heals.
	fsys, err := NewFaultFS(OS{}, []Rule{{Op: OpWrite, Kind: FaultENOSPC, Skip: 1, Times: 1}})
	if err != nil {
		t.Fatal(err)
	}
	f, err := fsys.OpenFile(filepath.Join(dir, "x"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write([]byte("one")); err != nil {
		t.Fatalf("write 1: %v", err)
	}
	if _, err := f.Write([]byte("two")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("write 2 err = %v, want ENOSPC", err)
	}
	if _, err := f.Write([]byte("three")); err != nil {
		t.Fatalf("write 3 after heal: %v", err)
	}
	if got := fsys.Fired(); got != 1 {
		t.Fatalf("Fired = %d, want 1", got)
	}
}

func TestFaultShortWriteLies(t *testing.T) {
	dir := t.TempDir()
	fsys, err := NewFaultFS(OS{}, []Rule{{Op: OpWrite, Kind: FaultShortWrite, Times: 1}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "torn")
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	n, err := f.Write([]byte("0123456789"))
	if err != nil || n != 10 {
		t.Fatalf("short write must lie: n=%d err=%v, want 10,nil", n, err)
	}
	f.Close()
	got, _ := os.ReadFile(path)
	if string(got) != "01234" {
		t.Fatalf("on-disk = %q, want torn half %q", got, "01234")
	}
}

func TestFaultFlipLies(t *testing.T) {
	dir := t.TempDir()
	fsys, err := NewFaultFS(OS{}, []Rule{{Op: OpWrite, Kind: FaultFlip, Times: 1}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "flipped")
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	buf := []byte("0123456789")
	n, err := f.Write(buf)
	if err != nil || n != 10 {
		t.Fatalf("flip write must lie: n=%d err=%v, want 10,nil", n, err)
	}
	if _, err := f.WriteAt([]byte("ab"), 10); err != nil {
		t.Fatalf("healed WriteAt: %v", err)
	}
	f.Close()
	if string(buf) != "0123456789" {
		t.Fatalf("flip damaged the caller's buffer: %q", buf)
	}
	// '5' (0x35) with bit 0 flipped is '4' (0x34); the length is intact.
	got, _ := os.ReadFile(path)
	if string(got) != "0123446789ab" {
		t.Fatalf("on-disk = %q, want one flipped bit %q", got, "0123446789ab")
	}
}

func TestFaultSyncThenCrashTruncates(t *testing.T) {
	dir := t.TempDir()
	fsys, err := NewFaultFS(OS{}, []Rule{{Op: OpSync, Kind: FaultCrash, Times: 1}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "half")
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("abcdefgh")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("Sync err = %v, want ErrInjectedCrash", err)
	}
	f.Close()
	got, _ := os.ReadFile(path)
	if string(got) != "abcd" {
		t.Fatalf("on-disk after sync-crash = %q, want half %q", got, "abcd")
	}
}

func TestFaultRenameDrop(t *testing.T) {
	dir := t.TempDir()
	fsys, err := NewFaultFS(OS{}, []Rule{{Op: OpRename, Kind: FaultRenameDrop, Times: 1}})
	if err != nil {
		t.Fatal(err)
	}
	src := filepath.Join(dir, "src")
	if err := os.WriteFile(src, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(dir, "dst")
	if err := fsys.Rename(src, dst); err != nil {
		t.Fatalf("dropped rename must report success, got %v", err)
	}
	if _, err := os.Stat(src); err != nil {
		t.Fatalf("src must survive a dropped rename: %v", err)
	}
	if _, err := os.Stat(dst); !os.IsNotExist(err) {
		t.Fatalf("dst must not exist after dropped rename: %v", err)
	}
	// Healed: the second rename goes through.
	if err := fsys.Rename(src, dst); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dst); err != nil {
		t.Fatalf("healed rename must land: %v", err)
	}
}

func TestFaultDeterminism(t *testing.T) {
	rules := []Rule{
		{Op: OpWrite, Kind: FaultEIO, Skip: 2, Times: 2},
		{Op: OpCreate, Kind: FaultENOSPC, Skip: 1, Times: 1},
	}
	run := func() []bool {
		dir := t.TempDir()
		fsys, err := NewFaultFS(OS{}, rules)
		if err != nil {
			t.Fatal(err)
		}
		var outcome []bool
		for i := 0; i < 3; i++ {
			f, err := fsys.OpenFile(filepath.Join(dir, "f"), os.O_CREATE|os.O_WRONLY, 0o644)
			outcome = append(outcome, err == nil)
			if err != nil {
				continue
			}
			for j := 0; j < 2; j++ {
				_, werr := f.Write([]byte("d"))
				outcome = append(outcome, werr == nil)
			}
			f.Close()
		}
		return outcome
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs diverged in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same rules, same op sequence, different outcome at step %d: %v vs %v", i, a, b)
		}
	}
}

func TestRuleValidateAndString(t *testing.T) {
	bad := []Rule{
		{Op: OpRead, Kind: FaultShortWrite},
		{Op: OpSync, Kind: FaultFlip},
		{Op: OpWrite, Kind: FaultRenameDrop},
		{Op: "bogus", Kind: FaultEIO},
		{Op: OpWrite, Kind: FaultEIO, Skip: -1},
	}
	for _, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", r)
		}
		if _, err := NewFaultFS(OS{}, []Rule{r}); err == nil {
			t.Errorf("NewFaultFS must reject %+v", r)
		}
	}
	r := Rule{Op: OpWrite, Kind: FaultENOSPC, Skip: 3, Times: 2}
	if got, want := r.String(), "vfs.write=enospc*2@3"; got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
	if got, want := (Rule{Op: OpSync, Kind: FaultCrash}).String(), "vfs.sync=crash"; got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

func TestParseOpAndKindRoundTrip(t *testing.T) {
	for _, op := range Ops() {
		got, err := ParseOp(string(op))
		if err != nil || got != op {
			t.Fatalf("ParseOp(%q) = %v, %v", op, got, err)
		}
	}
	for _, k := range []FaultKind{FaultENOSPC, FaultEIO, FaultShortWrite, FaultCrash, FaultRenameDrop, FaultFlip} {
		got, err := ParseFaultKind(k.String())
		if err != nil || got != k {
			t.Fatalf("ParseFaultKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseFaultKind("nope"); err == nil {
		t.Fatal("ParseFaultKind must reject unknown kinds")
	}
	if _, err := ParseOp("nope"); err == nil {
		t.Fatal("ParseOp must reject unknown ops")
	}
}

func TestFakeClockAdvanceFiresInOrder(t *testing.T) {
	c := NewFakeClock(time.Unix(1000, 0))
	ch1 := c.After(1 * time.Second)
	ch2 := c.After(3 * time.Second)
	if got := c.Waiters(); got != 2 {
		t.Fatalf("Waiters = %d, want 2", got)
	}
	c.Advance(2 * time.Second)
	select {
	case <-ch1:
	default:
		t.Fatal("1s waiter must fire after 2s advance")
	}
	select {
	case <-ch2:
		t.Fatal("3s waiter must not fire after 2s advance")
	default:
	}
	c.Advance(2 * time.Second)
	select {
	case <-ch2:
	default:
		t.Fatal("3s waiter must fire after 4s total")
	}
	if got := c.Waiters(); got != 0 {
		t.Fatalf("Waiters = %d, want 0", got)
	}
	if got := c.Since(time.Unix(1000, 0)); got != 4*time.Second {
		t.Fatalf("Since = %v, want 4s", got)
	}
}

func TestFakeClockSleepCancel(t *testing.T) {
	c := NewFakeClock(time.Unix(0, 0))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- c.Sleep(ctx, time.Hour) }()
	for c.Waiters() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Sleep after cancel = %v, want context.Canceled", err)
	}
}

func TestRealClockSleepZeroAndAfter(t *testing.T) {
	var c Clock = ClockOf(nil)
	if err := c.Sleep(context.Background(), 0); err != nil {
		t.Fatalf("zero Sleep: %v", err)
	}
	if err := c.Sleep(context.Background(), time.Millisecond); err != nil {
		t.Fatalf("Sleep: %v", err)
	}
	select {
	case <-c.After(time.Millisecond):
	case <-time.After(5 * time.Second):
		t.Fatal("After never fired")
	}
}
