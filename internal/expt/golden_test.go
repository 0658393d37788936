package expt

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"graphlocality/internal/obs"
	"graphlocality/internal/runctl"
)

// update rewrites the golden files instead of comparing against them:
//
//	go test ./internal/expt -run Golden -update
var update = flag.Bool("update", false, "rewrite golden files under testdata/golden")

// goldenSession is the shared serial Tiny session all live golden renders
// use: Parallel=1 runs every grid in order on the calling goroutine, and
// sharing one session means each reordering is computed once for the whole
// suite.
var (
	goldenOnce sync.Once
	goldenSess *Session
)

func tinyGoldenSession() *Session {
	goldenOnce.Do(func() {
		goldenSess = NewSession()
		goldenSess.Parallel = 1
	})
	return goldenSess
}

// checkGolden compares got against testdata/golden/<name>.golden,
// rewriting the file under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name+".golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("output drifted from %s\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// fixedTimingRows builds literal rows for the renderers whose output
// embeds wall-clock measurements: rendering live timings would make the
// goldens machine-dependent, so these snapshots pin the *format* (column
// layout, units, footnotes) against fixed values instead.
func renderCSV(t *testing.T, write func(w *bytes.Buffer) error) string {
	t.Helper()
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestGolden snapshots every table and figure renderer. Live subtests run
// the real Tiny experiments on a serial session (deterministic outputs:
// structure, simulated counters, degree-binned series); fixed subtests
// render literal rows for the timing-bearing tables.
func TestGolden(t *testing.T) {
	s := tinyGoldenSession()
	ds := Suite(Tiny)
	algs := StandardAlgorithms()
	social, web := ds[0], ds[1]

	live := []struct {
		name   string
		render func() string
	}{
		{"table1", func() string { return RenderTableI(TableI(s, ds)) }},
		{"table3", func() string { return RenderTableIII(TableIII(s, ds, algs)) }},
		{"table5", func() string { return RenderTableV(TableV(s, ds, algs)) }},
		{"fig1", func() string {
			var out string
			for _, d := range ds {
				out += RenderSeries("Fig 1 ("+d.Name+")", Fig1(s, d, algs))
			}
			return out
		}},
		{"fig1-csv", func() string {
			return renderCSV(t, func(w *bytes.Buffer) error {
				return WriteSeriesCSV(w, Fig1(s, social, algs))
			})
		}},
		{"fig2", func() string { return RenderFig2(Fig2(s, social)) }},
		{"fig3", func() string {
			var out string
			for _, d := range ds {
				out += RenderSeries("Fig 3 ("+d.Name+")", Fig3(s, d))
			}
			return out
		}},
		{"fig4", func() string { return RenderSeries("Fig 4", Fig4(s, social, web)) }},
		{"fig5", func() string { return RenderFig5(Fig5(s, []Dataset{social, web})) }},
		{"fig6", func() string { return RenderFig6(Fig6(s, ds)) }},
		{"fig6-csv", func() string {
			return renderCSV(t, func(w *bytes.Buffer) error {
				return WriteCoverageCSV(w, Fig6(s, ds))
			})
		}},
		{"ihtl", func() string { return RenderIHTL(IHTLExperiment(s, ds)) }},
		{"brew", func() string { return RenderBrew(BrewExperiment(s, []Dataset{social, web})) }},
		{"hilbert", func() string { return RenderHilbert(HilbertExperiment(s, ds)) }},
		{"utilization", func() string {
			return RenderUtilization(UtilizationExperiment(s, []Dataset{social, web}, algs))
		}},
	}
	for _, tc := range live {
		t.Run("live/"+tc.name, func(t *testing.T) {
			checkGolden(t, tc.name, tc.render())
		})
	}

	fixed := []struct {
		name   string
		render func() string
	}{
		{"table2", func() string {
			return RenderTableII([]TableIIRow{
				{Dataset: "TwtrS", Algorithm: "Initial", Preprocess: 0, AllocBytes: 0},
				{Dataset: "TwtrS", Algorithm: "GO", Preprocess: 1234 * time.Millisecond, AllocBytes: 5 << 20},
				{Dataset: "TwtrS", Algorithm: "RO", Preprocess: 2500 * time.Millisecond, AllocBytes: 12 << 20,
					Degraded: true, DegradedReason: "deadline exceeded"},
			})
		}},
		{"table4", func() string {
			return RenderTableIV([]TableIVRow{
				{Dataset: "TwtrS", Algorithm: "Initial", Time: 52 * time.Millisecond, IdlePct: 3.5,
					L3Misses: 100000, TLBMisses: 2000, L3MissRate: 21.5},
				{Dataset: "TwtrS", Algorithm: "GO", Time: 41 * time.Millisecond, IdlePct: 2.1,
					L3Misses: 60000, TLBMisses: 900, L3MissRate: 14.2, Degraded: true},
			})
		}},
		{"table4-csv", func() string {
			return renderCSV(t, func(w *bytes.Buffer) error {
				return WriteTableIVCSV(w, []TableIVRow{
					{Dataset: "TwtrS", Algorithm: "GO", Time: 41 * time.Millisecond, IdlePct: 2.1,
						L3Misses: 60000, TLBMisses: 900, L3MissRate: 14.2},
				})
			})
		}},
		{"table6", func() string {
			return RenderTableVI([]TableVIRow{
				{Dataset: "TwtrS", Kind: SocialNetwork, CSCMisses: 90000, CSRMisses: 110000,
					CSCTime: 50 * time.Millisecond, CSRTime: 64 * time.Millisecond, FasterTrav: "CSC"},
				{Dataset: "WebT", Kind: WebGraph, CSCMisses: 80000, CSRMisses: 60000,
					CSCTime: 44 * time.Millisecond, CSRTime: 36 * time.Millisecond, FasterTrav: "CSR"},
			})
		}},
		{"table7", func() string {
			return RenderTableVII([]TableVIIRow{
				{Dataset: "TwtrS", SBPreproc: 4 * time.Second, SBPPPreproc: time.Second,
					SBIterations: 40, SBPPIterations: 8,
					SBTime: 50 * time.Millisecond, SBPPTime: 48 * time.Millisecond,
					SBMisses: 90000, SBPPMisses: 88000},
			})
		}},
		{"edr", func() string {
			return RenderEDR([]EDRRow{
				{Dataset: "TwtrS", FullPreproc: 2.5, EDRPreproc: 1.1,
					FullTraversal: 48.2, EDRTraversal: 45.9,
					FullMisses: 90000, EDRMisses: 84000},
			})
		}},
		{"gap", func() string {
			return RenderGap([]GapRow{
				{Dataset: "TwtrS", EngineMS: 40.1, NaiveMS: 152.6, Speedup: 3.8},
			})
		}},
		{"hybrid", func() string {
			return RenderHybrid([]HybridRow{
				{Dataset: "TwtrS", Algorithm: "ro", Misses: 90000, Preproc: 2.1},
				{Dataset: "TwtrS", Algorithm: "ro+go", Misses: 82000, Preproc: 3.4},
			})
		}},
	}
	for _, tc := range fixed {
		t.Run("fixed/"+tc.name, func(t *testing.T) {
			checkGolden(t, tc.name, tc.render())
		})
	}
}

// TestGoldenManifest snapshots a normalized run manifest: a fresh serial
// session runs Table III on the Tiny suite with a live registry, and the
// deterministic facts (counters, spans, histogram counts) must match the
// committed golden byte-for-byte. Normalization strips every timing field
// first, so the golden is machine-independent.
func TestGoldenManifest(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewSession()
	s.Parallel = 1
	s.Obs = reg
	s.Ctrl = runctl.New(context.Background(), runctl.Config{Metrics: reg})
	TableIII(s, Suite(Tiny), StandardAlgorithms())
	m := reg.Manifest(obs.Meta{Tool: "localitylab", Command: "experiment table3"})
	data, err := m.Normalized().Encode()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "manifest-table3", string(data))
}
