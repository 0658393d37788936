package reorder_test

import (
	"errors"
	"reflect"
	"runtime"
	"testing"

	"graphlocality/internal/gen"
	"graphlocality/internal/reorder"
)

// The boba differential wall: the parallel counting-sort bucketing must be
// bit-identical to the serial stable bucketing (DBG) at every worker
// count. Run under -race (make verify) this also polices the histogram /
// prefix / scatter phases for data races.

// TestBobaMatchesDBGBitForBit anchors boba to DBG: same power-of-two degree
// classes, same high-to-low layout, same ascending-ID intra-bucket
// tie-break — so the permutations must be identical, not merely equivalent.
func TestBobaMatchesDBGBitForBit(t *testing.T) {
	for gname, g := range propertyGraphs() {
		want := reorder.Perm(reorder.DBG{}, g)
		for _, w := range []int{0, 1, 2, 3, 8} {
			got := reorder.Perm(reorder.Boba{Workers: w}, g)
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s: boba workers=%d diverges from DBG", gname, w)
			}
		}
	}
}

// TestBobaParallel8MatchesSerial is the satellite contract verbatim:
// workers=8 equals workers=1 bit for bit, on every structural class.
func TestBobaParallel8MatchesSerial(t *testing.T) {
	for gname, g := range propertyGraphs() {
		serial := reorder.Perm(reorder.Boba{Workers: 1}, g)
		parallel := reorder.Perm(reorder.Boba{Workers: 8}, g)
		if !reflect.DeepEqual(serial, parallel) {
			t.Errorf("%s: parallel-8 boba diverges from serial", gname)
		}
	}
}

// TestBobaWorkerClamps covers the degenerate pool sizes: more workers than
// vertices, and workers=0 resolving GOMAXPROCS at run time (so a runtime
// GOMAXPROCS change is picked up per call, never latched at construction).
func TestBobaWorkerClamps(t *testing.T) {
	g := gen.ErdosRenyi(7, 21, 1)
	want := reorder.Perm(reorder.DBG{}, g)
	if got := reorder.Perm(reorder.Boba{Workers: 1000}, g); !reflect.DeepEqual(want, got) {
		t.Errorf("workers=1000 on 7 vertices diverges from DBG")
	}
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	if got := reorder.Perm(reorder.Boba{}, g); !reflect.DeepEqual(want, got) {
		t.Errorf("workers=0 at GOMAXPROCS=1 diverges from DBG")
	}
	runtime.GOMAXPROCS(4)
	if got := reorder.Perm(reorder.Boba{}, g); !reflect.DeepEqual(want, got) {
		t.Errorf("workers=0 at GOMAXPROCS=4 diverges from DBG")
	}
}

// TestBobaSpecGrammar pins the spec surface: boba:workers=N,seed=S builds,
// bad values fail with typed *OptionError, and the registry metadata makes
// boba selectable everywhere light algorithms are.
func TestBobaSpecGrammar(t *testing.T) {
	g := gen.SocialNetwork(8, 8, 7)
	want := reorder.Perm(reorder.DBG{}, g)
	for _, spec := range []string{"boba", "boba:workers=1", "boba:workers=8", "boba:workers=8,seed=3", "boba:seed=9"} {
		alg, err := reorder.New(spec)
		if err != nil {
			t.Fatalf("New(%q): %v", spec, err)
		}
		if got := reorder.Perm(alg, g); !reflect.DeepEqual(want, got) {
			t.Errorf("spec %q diverges from DBG", spec)
		}
	}

	for _, spec := range []string{"boba:workers=-1", "boba:workers=two", "boba:buckets=4"} {
		_, err := reorder.New(spec)
		var optErr *reorder.OptionError
		if !errors.As(err, &optErr) {
			t.Errorf("New(%q): err = %v, want *OptionError", spec, err)
		}
	}

	info, ok := reorder.Lookup("boba")
	if !ok {
		t.Fatal("boba not registered")
	}
	if info.Class != reorder.ClassLight {
		t.Errorf("boba class = %v, want light", info.Class)
	}

	// Brew's classifier can select boba as a per-community sub-algorithm
	// (anything non-meta qualifies); with every slot forced to boba, a
	// single whole-graph community degenerates to plain boba.
	brew, err := reorder.New("brew:detect=none,hub=boba,dense=boba,else=boba")
	if err != nil {
		t.Fatalf("brew with boba sub-alg: %v", err)
	}
	if got := reorder.Perm(brew, g); !reflect.DeepEqual(want, got) {
		t.Errorf("brew with all slots boba diverges from DBG on a single community")
	}

	// Canonicalization sorts parameters for memo/artifact keying.
	s, err := reorder.ParseSpec("boba:workers=4,seed=2")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.Canonical(), "boba:seed=2,workers=4"; got != want {
		t.Errorf("canonical = %q, want %q", got, want)
	}
}

// TestBobaName pins the reported algorithm name used in tables.
func TestBobaName(t *testing.T) {
	if got := (reorder.Boba{}).Name(); got != "BOBA" {
		t.Errorf("name = %q", got)
	}
}

// TestBobaWorkerCountSweep is a wider invariance sweep than the -8 anchor:
// every pool size from 1 to 2×GOMAXPROCS lands on the identical
// permutation.
func TestBobaWorkerCountSweep(t *testing.T) {
	g := gen.PreferentialAttachment(1<<10, 8, 3)
	want := reorder.Perm(reorder.Boba{Workers: 1}, g)
	max := 2 * runtime.GOMAXPROCS(0)
	if max < 6 {
		max = 6
	}
	for w := 2; w <= max; w++ {
		if got := reorder.Perm(reorder.Boba{Workers: w}, g); !reflect.DeepEqual(want, got) {
			t.Errorf("workers=%d diverges from serial", w)
		}
	}
}
