// Package store is the crash-safe, integrity-checked artifact store of
// the toolkit: the single persistence layer for every expensive on-disk
// artifact (permutation checkpoints, graph files, trace logs) that a
// crashed, interrupted or concurrent run must be able to trust. Graph
// files (graph/segcsr) and trace logs (trace.WriteLogs) are containers
// in its format.
//
// It provides four guarantees (see DESIGN.md §11):
//
//   - Atomic writes. Every artifact is written with the same-directory
//     temp-file protocol of vfs.WriteFileAtomic (write → fsync file →
//     rename → fsync directory),
//     so a reader can never observe a half-written artifact under its
//     final name, and a crash at any instant leaves either the old
//     artifact, the new artifact, or an orphaned temp file — never a torn
//     one.
//
//   - Verified reads. Artifacts live in a versioned container format
//     (magic, version, section table, per-section length + CRC32C) and
//     every byte is checksum-verified before it escapes ReadArtifact. One
//     table parser checks the header for ReadContainer and OpenContainer
//     alike, reading from an io.ReaderAt of known size (SizedReaderAt).
//     A failed verification, a short read included, yields a typed
//     *IntegrityError; any other read error (EIO, EISDIR) is returned
//     wrapped, since it says nothing about the bytes (ReadFailed).
//
//   - Corruption handling. Quarantine is the one rule for a file that
//     failed verification: a regular file is renamed to <name>.corrupt
//     (preserving the evidence while unblocking regeneration), anything
//     else is left in place. The store counts both outcomes in its
//     *obs.Registry and reports *IntegrityError so callers can regenerate
//     instead of aborting; the graph loaders apply the same rule.
//
//   - Shared-cache locking. Advisory flock-based single-writer /
//     multi-reader locks let concurrent processes share one cache
//     directory: GetOrCompute guarantees at most one process computes a
//     given artifact while the others block and then read the verified
//     result. The locks are 256 stripes (.stripe-XX.lock, XX the low
//     byte of the name's CRC32C), each created on first use, rather than
//     one file per artifact: a file create costs an inode, 40-560 µs of
//     CPU on ext4, where opening an existing stripe costs ~5 µs.
//
// Every disk touch goes through the vfs.FS passed to Open, so a
// vfs.FaultFS can crash, tear or corrupt a write at every protocol step
// — each a counted filesystem operation — and the chaos sweeps prove
// recovery end-to-end.
package store
