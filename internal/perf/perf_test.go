package perf

import (
	"path/filepath"
	"reflect"
	"testing"

	"graphlocality/internal/gen"
	"graphlocality/internal/graph"
)

func baselineReport() Report {
	r := Report{Schema: SchemaVersion, Suite: "test", GoMaxProcs: 1}
	r.Add("micro/a", 3, 100)
	r.Add("macro/b", 3, 1e6)
	r.AddSpeedup("macro/b", 2.0)
	return r
}

func TestDiffPasses(t *testing.T) {
	base := baselineReport()

	// Identical reports pass.
	if regs, err := Diff(base, base, 1.5); err != nil || len(regs) != 0 {
		t.Fatalf("self-diff: regs=%v err=%v", regs, err)
	}

	// Slowdown and erosion inside the tolerance pass.
	cur := baselineReport()
	cur.Benchmarks[0].NsPerOp = 140
	cur.Speedups[0].Speedup = 1.5
	if regs, err := Diff(base, cur, 1.5); err != nil || len(regs) != 0 {
		t.Fatalf("within tolerance: regs=%v err=%v", regs, err)
	}

	// Benchmarks only in current are new coverage, never violations.
	cur = baselineReport()
	cur.Add("micro/new", 3, 5)
	cur.AddSpeedup("macro/new", 3.0)
	if regs, err := Diff(base, cur, 1.5); err != nil || len(regs) != 0 {
		t.Fatalf("new coverage: regs=%v err=%v", regs, err)
	}
}

func TestDiffCatchesRegressions(t *testing.T) {
	base := baselineReport()

	// Time regression beyond tolerance.
	cur := baselineReport()
	cur.Benchmarks[0].NsPerOp = 200
	regs, err := Diff(base, cur, 1.5)
	if err != nil || len(regs) != 1 {
		t.Fatalf("time regression: regs=%v err=%v", regs, err)
	}
	if regs[0].Kind != TimeRegression || regs[0].Name != "micro/a" || regs[0].Ratio != 2.0 {
		t.Fatalf("time regression: %+v", regs[0])
	}

	// Speedup erosion: the batched path silently losing its advantage.
	cur = baselineReport()
	cur.Speedups[0].Speedup = 1.0
	regs, err = Diff(base, cur, 1.5)
	if err != nil || len(regs) != 1 {
		t.Fatalf("speedup erosion: regs=%v err=%v", regs, err)
	}
	if regs[0].Kind != SpeedupErosion || regs[0].Ratio != 2.0 {
		t.Fatalf("speedup erosion: %+v", regs[0])
	}

	// Dropped coverage must not pass silently.
	cur = Report{Schema: SchemaVersion}
	cur.Add("micro/a", 3, 100)
	regs, err = Diff(base, cur, 1.5)
	if err != nil || len(regs) != 2 {
		t.Fatalf("missing benchmarks: regs=%v err=%v", regs, err)
	}
	for _, r := range regs {
		if r.Kind != MissingBenchmark {
			t.Fatalf("missing benchmarks: %+v", r)
		}
	}
}

func TestDiffWorstFirst(t *testing.T) {
	base := Report{Schema: SchemaVersion}
	base.Add("mild", 1, 100)
	base.Add("severe", 1, 100)
	base.Add("gone", 1, 100)
	cur := Report{Schema: SchemaVersion}
	cur.Add("mild", 1, 200)
	cur.Add("severe", 1, 400)
	regs, err := Diff(base, cur, 1.5)
	if err != nil || len(regs) != 3 {
		t.Fatalf("regs=%v err=%v", regs, err)
	}
	if regs[0].Name != "severe" || regs[1].Name != "mild" || regs[2].Name != "gone" {
		t.Fatalf("order: %v", regs)
	}
}

func TestDiffRejectsBadInputs(t *testing.T) {
	base := baselineReport()
	if _, err := Diff(base, base, 0.9); err == nil {
		t.Fatal("tolerance < 1 accepted")
	}
	cur := baselineReport()
	cur.Schema = SchemaVersion + 1
	if _, err := Diff(base, cur, 1.5); err == nil {
		t.Fatal("schema mismatch accepted")
	}
}

func TestReportRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	want := baselineReport()
	if err := WriteFile(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("round trip: got %+v, want %+v", got, want)
	}
	if got.MinSpeedup() != 2.0 {
		t.Fatalf("MinSpeedup = %v, want 2.0", got.MinSpeedup())
	}
}

func TestSpMVAccessRows(t *testing.T) {
	var r Report
	SpMVAccess(&r, gen.SocialNetwork(8, 4, 1), Options{Repeats: 1})
	for _, name := range []string{"cachesim/access/spmv", "cachesim/access/tlb"} {
		for _, row := range []string{name + "/scalar", name + "/batched"} {
			if b, ok := r.Find(row); !ok || b.NsPerOp <= 0 {
				t.Errorf("%s: %+v, found %v", row, b, ok)
			}
		}
		if s, ok := r.FindSpeedup(name); !ok || s.Speedup <= 0 {
			t.Errorf("%s speedup: %+v, found %v", name, s, ok)
		}
	}
}

func TestGenRows(t *testing.T) {
	build := func() *graph.Graph { return gen.SocialNetwork(8, 4, 1) }
	var r Report
	err := Gen(&r, []Workload{{Name: "s", Graph: build(), Build: build}, {Name: "fixed", Graph: build()}}, Options{Repeats: 1})
	if err != nil {
		t.Fatal(err)
	}
	if b, ok := r.Find("gen/s"); !ok || b.NsPerOp <= 0 {
		t.Errorf("gen/s: %+v, found %v", b, ok)
	}
	if len(r.Benchmarks) != 1 {
		t.Errorf("rows %+v, want only gen/s (fixed has no Build)", r.Benchmarks)
	}
	other := func() *graph.Graph { return gen.SocialNetwork(8, 4, 2) }
	if err := Gen(&r, []Workload{{Name: "d", Graph: build(), Build: other}}, Options{Repeats: 1}); err == nil {
		t.Error("a build that differs from the workload's graph passed")
	}
}

// TestReorderRows checks the reorder rows: one per spec and shape, named
// reorder/<spec>/<shape>, each over the requested repetitions (which must
// all return one permutation).
func TestReorderRows(t *testing.T) {
	shapes := ReorderShapes()[:2] // TwtrS and FrndS
	var r Report
	if err := Reorder(&r, shapes, ReorderSpecs, Options{Repeats: 2}); err != nil {
		t.Fatal(err)
	}
	if len(r.Benchmarks) != len(ReorderSpecs)*len(shapes) {
		t.Errorf("%d rows, want %d", len(r.Benchmarks), len(ReorderSpecs)*len(shapes))
	}
	for _, spec := range ReorderSpecs {
		for _, w := range shapes {
			name := "reorder/" + spec + "/" + w.Name
			if b, ok := r.Find(name); !ok || b.NsPerOp <= 0 || b.Iters != 2 {
				t.Errorf("%s: %+v, found %v", name, b, ok)
			}
		}
	}
}
