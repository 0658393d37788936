package vfs

import (
	"bufio"
	"errors"
	"io"
	"path/filepath"
	"syscall"
)

// commitMode is the permission every WriteFileAtomic commit carries,
// independent of the process umask and of CreateTemp's private 0600.
const commitMode = 0o644

// WriteFileAtomic writes a file with full crash safety through fsys (nil
// = the OS passthrough): the payload is streamed through a bufio.Writer
// into a same-directory temp file given mode 0644, flushed and fsynced,
// renamed over path, and the directory is fsynced so the
// rename itself is durable. A crash at any instant leaves either the old
// file or the new file under path, never a torn mixture (plus at most
// one orphaned ".tmp-*" file, which the store's GC collects).
//
// The operations, in order, are one create (the temp file), the data
// writes (with bufio the first lands at flush), one sync (the temp
// file), one rename, one open (the directory) and one sync (the
// directory) — the steps a FaultFS rule counts. An ErrInjectedCrash from
// any of them aborts the protocol right there and, deliberately, skips
// all cleanup, so crash-restart tests see exactly the on-disk state a
// SIGKILL would leave; every other failure removes the temp file.
func WriteFileAtomic(fsys FS, path string, write func(io.Writer) error) (err error) {
	fsys = Of(fsys)
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	tmp, err := fsys.CreateTemp(dir, ".tmp-"+base+"-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer func() {
		if errors.Is(err, ErrInjectedCrash) {
			return
		}
		tmp.Close()
		if err != nil {
			fsys.Remove(tmpName)
		}
	}()

	if err = tmp.Chmod(commitMode); err != nil {
		return err
	}
	bw := bufio.NewWriter(tmp)
	if err = write(bw); err != nil {
		return err
	}
	if err = bw.Flush(); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	if err = fsys.Rename(tmpName, path); err != nil {
		return err
	}
	return syncDir(fsys, dir)
}

// syncDir fsyncs a directory so a just-committed rename survives power
// loss. Filesystems that cannot fsync directories report EINVAL/ENOTSUP;
// those are ignored — the rename is still atomic, just not yet durable,
// which is the strongest guarantee such filesystems offer.
func syncDir(fsys FS, dir string) error {
	d, err := fsys.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return err
	}
	return nil
}
