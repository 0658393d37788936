//go:build unix

package vfs

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

func writeString(s string) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := io.WriteString(w, s)
		return err
	}
}

// TestWriteFileAtomicCommitsMode0644: every commit carries mode 0644 —
// not CreateTemp's private 0600, and not whatever the umask leaves —
// for fresh files and for overwrites of a file with another mode.
func TestWriteFileAtomicCommitsMode0644(t *testing.T) {
	for _, umask := range []int{0o022, 0o077} {
		old := syscall.Umask(umask)
		path := filepath.Join(t.TempDir(), "out.bin")
		if err := WriteFileAtomic(nil, path, writeString("fresh")); err != nil {
			t.Fatal(err)
		}
		fresh, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Chmod(path, 0o600); err != nil {
			t.Fatal(err)
		}
		if err := WriteFileAtomic(nil, path, writeString("overwrite")); err != nil {
			t.Fatal(err)
		}
		over, err := os.Stat(path)
		syscall.Umask(old)
		if err != nil {
			t.Fatal(err)
		}
		for _, fi := range []os.FileInfo{fresh, over} {
			if fi.Mode().Perm() != 0o644 {
				t.Errorf("umask %#o: committed mode %v, want -rw-r--r--", umask, fi.Mode().Perm())
			}
		}
	}
}

// TestWriteFileAtomicCleansUpOnlyOrganicFailures: an organic failure
// removes the temp file; an injected crash leaves it exactly where the
// dead process left it.
func TestWriteFileAtomicCleansUpOnlyOrganicFailures(t *testing.T) {
	cases := []struct {
		rule     Rule
		wantTemp bool
	}{
		{Rule{Op: OpWrite, Kind: FaultEIO}, false},
		{Rule{Op: OpRename, Kind: FaultEIO}, false},
		{Rule{Op: OpRename, Kind: FaultCrash}, true},
	}
	for _, tc := range cases {
		t.Run(tc.rule.String(), func(t *testing.T) {
			dir := t.TempDir()
			fsys, err := NewFaultFS(OS{}, []Rule{tc.rule})
			if err != nil {
				t.Fatal(err)
			}
			err = WriteFileAtomic(fsys, filepath.Join(dir, "out.bin"), writeString("payload"))
			if err == nil || errors.Is(err, ErrInjectedCrash) != tc.wantTemp {
				t.Fatalf("err = %v", err)
			}
			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			temps := 0
			for _, e := range ents {
				if strings.HasPrefix(e.Name(), ".tmp-") {
					temps++
				} else {
					t.Errorf("unexpected file %q", e.Name())
				}
			}
			if (temps == 1) != tc.wantTemp || temps > 1 {
				t.Fatalf("%d temp files left, want temp=%v", temps, tc.wantTemp)
			}
		})
	}
}
