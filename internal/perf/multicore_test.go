package perf

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"graphlocality/internal/gen"
)

// TestMulticorePass runs the multicore sweeps on a tiny workload and
// checks the report shape: boba, simulate and simulate-pv-tlb rows, one
// timing row per (sweep, worker count), one speedup row per worker count
// above 1, and GOMAXPROCS restored afterward.
// The pass's built-in DeepEqual cross-checks make a passing run a
// bit-exactness statement too; a divergence would surface as an error here.
func TestMulticorePass(t *testing.T) {
	before := runtime.GOMAXPROCS(0)
	workloads := []Workload{{Name: "tiny", Graph: gen.SocialNetwork(9, 8, 3)}}
	counts := []int{1, 2, 4}
	r := Report{Schema: SchemaVersion, Suite: "test"}
	if err := Multicore(&r, workloads, counts, Options{Repeats: 1}); err != nil {
		t.Fatal(err)
	}
	if got := runtime.GOMAXPROCS(0); got != before {
		t.Errorf("GOMAXPROCS = %d after pass, want %d restored", got, before)
	}
	sweeps := []string{"boba", "simulate", "simulate-pv-tlb"}
	for _, sw := range sweeps {
		for _, wc := range counts {
			name := fmt.Sprintf("multicore/%s/tiny/w=%d", sw, wc)
			if _, ok := r.Find(name); !ok {
				t.Errorf("missing benchmark %s", name)
			}
			_, hasSpeedup := r.FindSpeedup(name)
			if wantSpeedup := wc > 1; hasSpeedup != wantSpeedup {
				t.Errorf("speedup entry for %s: present=%v, want %v", name, hasSpeedup, wantSpeedup)
			}
		}
	}
	if want := len(sweeps) * len(counts); len(r.Benchmarks) != want {
		t.Errorf("%d benchmark rows, want %d", len(r.Benchmarks), want)
	}
	for _, s := range r.Speedups {
		if s.Speedup <= 0 {
			t.Errorf("speedup %s = %v, want > 0", s.Name, s.Speedup)
		}
	}
}

// TestMulticoreDefaultsWorkerLadder pins the ladder contract: it starts at
// 1 (the baseline every speedup is relative to) and always includes 2, so
// the parallel boba pass runs even on a single-core machine; and a caller
// list not starting at 1 gets the baseline prepended.
func TestMulticoreDefaultsWorkerLadder(t *testing.T) {
	counts := DefaultWorkerCounts()
	if len(counts) < 2 || counts[0] != 1 || counts[1] != 2 {
		t.Fatalf("DefaultWorkerCounts() = %v, want to start 1,2", counts)
	}
	workloads := []Workload{{Name: "t", Graph: gen.ErdosRenyi(200, 1000, 1)}}
	r := Report{Schema: SchemaVersion}
	if err := Multicore(&r, workloads, []int{2}, Options{Repeats: 1}); err != nil {
		t.Fatal(err)
	}
	var haveBase bool
	for _, b := range r.Benchmarks {
		if strings.HasSuffix(b.Name, "/w=1") {
			haveBase = true
		}
	}
	if !haveBase {
		t.Error("worker list without 1 did not get the w=1 baseline prepended")
	}
}
