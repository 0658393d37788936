package expt

import (
	"reflect"
	"strings"
	"testing"

	"graphlocality/internal/graph"
	"graphlocality/internal/reorder"
)

// The session's memo tables and checkpoints key on Spec(), not on the
// display name; these tests pin that two configurations of one algorithm
// (go and go:window=1) never share a result.

// TestSessionKeysOnSpec runs go and go:window=1 in one session and
// requires the permutations each gets when run alone.
func TestSessionKeysOnSpec(t *testing.T) {
	_, ds := tinySession()
	d := ds[0]
	specs := []string{"go", "go:window=1"}
	alone := make(map[string]graph.Permutation, len(specs))
	for _, spec := range specs {
		s, _ := tinySession()
		alone[spec] = s.Reorder(d, reorder.MustNew(spec)).Perm
	}
	if reflect.DeepEqual(alone[specs[0]], alone[specs[1]]) {
		t.Fatalf("%s: %s and %s agree, the test cannot tell them apart", d.Name, specs[0], specs[1])
	}

	s, _ := tinySession()
	algs := make([]reorder.Algorithm, len(specs))
	for i, spec := range specs {
		algs[i] = reorder.MustNew(spec)
		if got := s.Reorder(d, algs[i]).Perm; !reflect.DeepEqual(got, alone[spec]) {
			t.Errorf("%s in a shared session differs from %s run alone", spec, spec)
		}
	}
	if s.Relabeled(d, algs[0]) == s.Relabeled(d, algs[1]) {
		t.Error("go and go:window=1 share one relabeled graph")
	}
}

// TestCheckpointNotRestoredForOtherSpec saves a checkpoint for
// go:window=1 and resumes a go run from the same cache directory: go must
// be recomputed, not restored from the other configuration.
func TestCheckpointNotRestoredForOtherSpec(t *testing.T) {
	dir := t.TempDir()
	_, ds := tinySession()
	d := ds[0]

	writer, _ := tinySession()
	writer.CacheDir = dir
	writer.Reorder(d, reorder.MustNew("go:window=1"))

	resumed, _ := tinySession()
	resumed.CacheDir = dir
	resumed.Resume = true
	alg := reorder.MustNew("go")
	got := resumed.Reorder(d, alg)
	if resumed.Restored(d, alg) {
		t.Error("go restored from the go:window=1 checkpoint")
	}
	fresh, _ := tinySession()
	if want := fresh.Reorder(d, reorder.MustNew("go")); !reflect.DeepEqual(got.Perm, want.Perm) {
		t.Error("resumed go permutation differs from a fresh go run")
	}
}

// TestCheckpointRejectsOtherSpec pins the metadata check behind file
// names: two specs that sanitize to the same name cannot load each
// other's checkpoint.
func TestCheckpointRejectsOtherSpec(t *testing.T) {
	dir := t.TempDir()
	res := reorder.Result{Perm: graph.Permutation{1, 0, 2}}
	if CheckpointName("d", "x:a=1") != CheckpointName("d", "x_a_1") {
		t.Fatal("test premise: the two specs should share a file name")
	}
	if err := SavePermCheckpoint(nil, dir, "d", "x:a=1", res); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPermCheckpoint(nil, dir, "d", "x:a=1", 3); err != nil {
		t.Fatalf("own spec rejected: %v", err)
	}
	if _, err := LoadPermCheckpoint(nil, dir, "d", "x_a_1", 3); err == nil || !strings.Contains(err.Error(), "spec") {
		t.Errorf("checkpoint for x:a=1 loaded as x_a_1: %v", err)
	}
}
