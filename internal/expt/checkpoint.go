package expt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"time"

	"graphlocality/internal/graph"
	"graphlocality/internal/reorder"
	"graphlocality/internal/store"
	"graphlocality/internal/vfs"
)

// Permutation checkpoints persist the expensive output of a reordering
// stage so a crashed or interrupted experiment run can resume without
// recomputation, and so concurrent runs sharing one -cachedir compute
// each permutation exactly once. One artifact per dataset and algorithm
// spec (reorder.Algorithm.Spec(), the configuration's identity),
// persisted through internal/store: atomic (temp + fsync + rename
// + dir fsync), CRC32C-verified on every read, quarantined to
// <name>.corrupt when damaged, and guarded by the store's advisory
// per-artifact locks.
//
// Artifact layout: a store container with three sections —
//
//	"meta": version u32, |V| u32, elapsed ns u64, alloc bytes u64
//	"spec": the algorithm spec the permutation was computed for
//	"perm": [|V|]u32 little-endian (old ID → new ID)
//
// Loads validate the container checksums (in the store), then the meta
// version, the recorded spec (sanitized file names can collide, specs
// cannot), the expected vertex count, and that the payload is a proper
// permutation of [0, |V|).

const (
	permMetaSection = "meta"
	permSpecSection = "spec"
	permDataSection = "perm"
	// permMetaVersion 3 records the spec. Version 2 checkpoints were
	// keyed on display names, which distinct configurations share, and
	// version 1 was the pre-store "GLPC" flat file; both read as
	// unsupported now and are simply regenerated.
	permMetaVersion = 3
)

// CheckpointName returns the artifact name of a dataset/algorithm-spec
// pair inside a cache directory. Names are sanitized so specs like
// "ro+go:window=7" or dataset names derived from file paths cannot escape
// the directory.
func CheckpointName(dsName, spec string) string {
	return sanitize(dsName) + "__" + sanitize(spec) + ".perm"
}

func sanitize(s string) string {
	out := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '.':
			return r
		default:
			return '_'
		}
	}, s)
	// A leading '.' would collide with the store's reserved temp prefix.
	if strings.HasPrefix(out, ".") {
		out = "_" + strings.TrimLeft(out, ".")
	}
	return out
}

// encodePermSections serializes a reordering result computed for spec
// into the checkpoint container sections.
func encodePermSections(spec string, res reorder.Result) []store.Section {
	meta := make([]byte, 0, 24)
	meta = binary.LittleEndian.AppendUint32(meta, permMetaVersion)
	meta = binary.LittleEndian.AppendUint32(meta, uint32(len(res.Perm)))
	meta = binary.LittleEndian.AppendUint64(meta, uint64(res.Elapsed.Nanoseconds()))
	meta = binary.LittleEndian.AppendUint64(meta, res.AllocBytes)
	perm := make([]byte, 4*len(res.Perm))
	for i, v := range res.Perm {
		binary.LittleEndian.PutUint32(perm[4*i:], v)
	}
	return []store.Section{
		{Name: permMetaSection, Data: meta},
		{Name: permSpecSection, Data: []byte(spec)},
		{Name: permDataSection, Data: perm},
	}
}

// decodePermSections validates and decodes checkpoint sections. spec and
// n are the expected algorithm spec and vertex count; a checkpoint
// recorded for another configuration or size (e.g. written for a
// different -size suite) is rejected. path only labels errors. The
// result's Algorithm field holds spec.
func decodePermSections(sections []store.Section, path, spec string, n uint32) (reorder.Result, error) {
	meta, ok := store.FindSection(sections, permMetaSection)
	if !ok {
		return reorder.Result{}, fmt.Errorf("expt: checkpoint %s: missing %q section", path, permMetaSection)
	}
	if len(meta) != 24 {
		return reorder.Result{}, fmt.Errorf("expt: checkpoint %s: meta section is %d bytes, want 24", path, len(meta))
	}
	br := bytes.NewReader(meta)
	var version, count uint32
	var elapsedNs, alloc uint64
	for _, p := range []any{&version, &count, &elapsedNs, &alloc} {
		if err := binary.Read(br, binary.LittleEndian, p); err != nil {
			return reorder.Result{}, fmt.Errorf("expt: checkpoint %s: reading meta: %w", path, err)
		}
	}
	if version != permMetaVersion {
		return reorder.Result{}, fmt.Errorf("expt: checkpoint %s: unsupported version %d", path, version)
	}
	if got, _ := store.FindSection(sections, permSpecSection); string(got) != spec {
		return reorder.Result{}, fmt.Errorf("expt: checkpoint %s: computed for spec %q, want %q", path, got, spec)
	}
	if count != n {
		return reorder.Result{}, fmt.Errorf("expt: checkpoint %s: %d vertices, want %d", path, count, n)
	}
	data, ok := store.FindSection(sections, permDataSection)
	if !ok {
		return reorder.Result{}, fmt.Errorf("expt: checkpoint %s: missing %q section", path, permDataSection)
	}
	if len(data) != int(count)*4 {
		return reorder.Result{}, fmt.Errorf("expt: checkpoint %s: %d payload bytes, want %d", path, len(data), count*4)
	}
	perm := make(graph.Permutation, count)
	for i := range perm {
		perm[i] = binary.LittleEndian.Uint32(data[4*i:])
	}
	// The payload must be a bijection on [0, n).
	seen := make([]bool, count)
	for old, nw := range perm {
		if nw >= count || seen[nw] {
			return reorder.Result{}, fmt.Errorf("expt: checkpoint %s: not a permutation at index %d", path, old)
		}
		seen[nw] = true
	}
	return reorder.Result{
		Algorithm:  spec,
		Perm:       perm,
		Elapsed:    time.Duration(elapsedNs),
		AllocBytes: alloc,
	}, nil
}

// SavePermCheckpoint atomically writes the permutation of res for the
// given dataset and algorithm spec under dir (created if missing), with
// the store's disk operations routed through fsys (nil = the real
// filesystem). The write goes through the artifact store: it is
// crash-safe and taken under the artifact's exclusive lock.
func SavePermCheckpoint(fsys vfs.FS, dir, dsName, spec string, res reorder.Result) error {
	st, err := store.Open(fsys, dir, nil)
	if err != nil {
		return err
	}
	return st.WriteArtifact(CheckpointName(dsName, spec), encodePermSections(spec, res))
}

// LoadPermCheckpoint reads and fully verifies the checkpoint for the
// given dataset and algorithm spec; the result's Algorithm field holds
// the spec. Integrity damage surfaces as a typed *store.IntegrityError
// after the store has quarantined the file; a missing checkpoint reports
// os.IsNotExist. fsys routes the store's disk operations (nil = the real
// filesystem).
func LoadPermCheckpoint(fsys vfs.FS, dir, dsName, spec string, n uint32) (reorder.Result, error) {
	st, err := store.Open(fsys, dir, nil)
	if err != nil {
		return reorder.Result{}, err
	}
	name := CheckpointName(dsName, spec)
	sections, err := st.ReadArtifact(name)
	if err != nil {
		return reorder.Result{}, err
	}
	return decodePermSections(sections, st.Path(name), spec, n)
}
