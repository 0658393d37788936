package main

import (
	"io"
	"math"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"graphlocality/internal/serve"
)

// smokeShift shrinks every input 128-fold, so all four workloads, traced and
// untraced, run in seconds under the race detector.
const smokeShift = 7

// TestSmokeAllWorkloads runs every workload untraced, which sets up three
// times between the parts of its timed phase and must report every
// end-to-end metric above 0, and traced, which runs its untraced phase,
// traced phase, layer-alone passes and checks.
func TestSmokeAllWorkloads(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir()) // the serve workload's store
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.name + "/untraced"
			if traced {
				name = w.name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				cfg := config{workload: w.name, seed: 2, duration: time.Millisecond, trace: traced, shift: smokeShift}
				res, tr, err := run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct %v attempted %d failed %d: %v", res.Correct, res.Attempted, res.Failed, res.Errors)
				}
				tab := endToEnd
				if traced {
					tab = perLayer
				}
				if len(res.Metrics) != len(tab) {
					t.Fatalf("%d metrics, want %d", len(res.Metrics), len(tab))
				}
				for _, m := range tab {
					v, ok := res.Metrics[m.Name]
					if !ok || v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
						t.Errorf("metric %s = %+v", m.Name, v)
					}
					if !traced && v.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, v.Value)
					}
				}
				if traced && len(tr.snapshot()) == 0 {
					t.Error("traced run recorded no spans")
				}
			})
		}
	}
}

// A seed makes the same inputs, and so the same exact counts, every time;
// another seed makes other inputs.
func TestSeedDeterminesInputs(t *testing.T) {
	a, b, c := buildAll(standard, smokeShift, 1, nil), buildAll(standard, smokeShift, 1, nil), buildAll(standard, smokeShift, 2, nil)
	for i := range a {
		if !a[i].g.Equal(b[i].g) {
			t.Errorf("%s: seed 1 built two different graphs", a[i].name)
		}
		if a[i].g.Equal(c[i].g) {
			t.Errorf("%s: seeds 1 and 2 built the same graph", a[i].name)
		}
	}
	seq := func(seed uint64) []serve.JobRequest {
		g := newRequestGen(seed, smokeShift)
		var out []serve.JobRequest
		for i := 0; i < 200; i++ {
			out = append(out, g.specs[g.next()])
		}
		return out
	}
	if !reflect.DeepEqual(seq(1), seq(1)) {
		t.Error("seed 1 drew two different request sequences")
	}
	if reflect.DeepEqual(seq(1), seq(2)) {
		t.Error("seeds 1 and 2 drew the same request sequence")
	}
}

func TestRunMainUsage(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-workload", "nope"},
		{"-workload", "sim-pull", "-trace", "2"},
		{"-workload", "sim-pull", "-seconds", "0"},
		{"-workload", "sim-pull", "extra"},
	} {
		if code := runMain(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("runMain(%q) = %d, want 2", args, code)
		}
	}
}

func TestCompareJudgesMediansAndPairs(t *testing.T) {
	lat := metric{"latency_p50_ref", "ref", lower, 0.10}
	thr := metric{"medges_per_ref", "Medge/ref", higher, 0.10}
	ten := func(base float64) []float64 {
		xs := make([]float64, 10)
		for i := range xs {
			xs[i] = base + float64(i%3)
		}
		return xs
	}
	for _, tc := range []struct {
		name         string
		m            metric
		a, b         []float64
		agree, worse bool
		wins         int
		gain         bool
	}{
		{"same", lat, ten(100), ten(100), true, false, 0, false},
		{"slower beyond bound", lat, ten(100), ten(120), false, true, 0, false},
		{"faster within bound", lat, ten(100), ten(95), true, false, 10, true},
		// 101 against 91: within 10% of A, but not of B.
		{"faster beyond bound of B", lat, ten(100), ten(90), false, false, 10, true},
		{"more throughput", thr, ten(100), ten(105), true, false, 10, true},
		{"less throughput", thr, ten(100), ten(80), false, true, 0, false},
		// 101 against 91: within 10% of A, not of B, and B is the worse.
		{"less throughput within bound of A", thr, ten(100), ten(90), false, false, 0, false},
	} {
		v := judge(tc.m, tc.a, tc.b)
		if v.agree != tc.agree || v.worse != tc.worse || v.wins != tc.wins || v.gain != tc.gain || v.pairs != 10 {
			t.Errorf("%s: %+v", tc.name, v)
		}
		if back := judge(tc.m, tc.b, tc.a); back.agree != v.agree {
			t.Errorf("%s: agree %v one way round, %v the other", tc.name, v.agree, back.agree)
		}
	}
}

func TestCompareMainReadsResultDirs(t *testing.T) {
	write := func(dir string, i int, lat float64) {
		res := result{Workload: "sim-pull", Correct: true, Attempted: 1, Metrics: map[string]value{"latency_p50_ref": {lat, "ref"}}}
		if err := writeJSON(filepath.Join(dir, string(rune('a'+i))+".json"), res); err != nil {
			t.Fatal(err)
		}
	}
	a, same, slow := t.TempDir(), t.TempDir(), t.TempDir()
	for i := 0; i < 5; i++ {
		write(a, i, 100+float64(i))
		write(same, i, 101+float64(i))
		write(slow, i, 150+float64(i))
	}
	if code := compareMain([]string{a, same}, io.Discard, io.Discard); code != 0 {
		t.Errorf("same medians: exit %d, want 0", code)
	}
	if code := compareMain([]string{a, slow}, io.Discard, io.Discard); code != 1 {
		t.Errorf("slower B: exit %d, want 1", code)
	}
	if code := compareMain([]string{a, t.TempDir()}, io.Discard, io.Discard); code != 1 {
		t.Errorf("empty B: exit %d, want 1", code)
	}
}
