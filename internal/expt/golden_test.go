package expt

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
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

func goldenPath(name string) string { return filepath.Join("testdata", "golden", name+".golden") }

// checkGolden compares got against testdata/golden/<name>.golden,
// rewriting the file under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := goldenPath(name)
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

func renderCSV(t *testing.T, write func(w *bytes.Buffer) error) string {
	t.Helper()
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// csvGoldenName is the golden file name of an experiment's CSV file:
// fig1-TwtrT.csv is pinned by fig1-TwtrT-csv.golden.
func csvGoldenName(file string) string { return strings.TrimSuffix(file, ".csv") + "-csv" }

// TestGolden snapshots every experiment. Live subtests run each registry
// entry without wall-clock cells on the Tiny suite, in a serial session
// (deterministic outputs: structure, simulated counters, degree-binned
// series), and pin its text and its CSV files; fixed subtests render
// literal rows for the timing-bearing tables.
func TestGolden(t *testing.T) {
	s := tinyGoldenSession()
	ds := Suite(Tiny)
	algs := StandardAlgorithms()
	for _, e := range Experiments {
		if e.WallClock {
			continue
		}
		out, err := e.Run(s, ds, algs)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		t.Run("live/"+e.ID, func(t *testing.T) {
			checkGolden(t, e.ID, out.Text)
		})
		if len(out.CSV) > 0 {
			t.Run("live/"+e.ID+"-csv", func(t *testing.T) {
				for _, name := range sortedKeys(out.CSV) {
					checkGolden(t, csvGoldenName(name), string(out.CSV[name]))
				}
			})
		}
	}
	for _, tc := range fixedGoldens(t) {
		t.Run("fixed/"+tc.name, func(t *testing.T) {
			checkGolden(t, tc.name, tc.render())
		})
	}
}

// TestGoldenCoversRegistry: every experiment is pinned, by a live golden
// or, when its output has wall-clock cells, by a fixed one.
func TestGoldenCoversRegistry(t *testing.T) {
	fixed := make(map[string]bool)
	for _, tc := range fixedGoldens(t) {
		fixed[tc.name] = true
	}
	for _, e := range Experiments {
		if e.WallClock && !fixed[e.ID] {
			t.Errorf("%s has wall-clock cells but no fixed golden", e.ID)
		}
		if !e.WallClock && fixed[e.ID] {
			t.Errorf("%s has a fixed golden but runs live", e.ID)
		}
		if _, err := os.Stat(goldenPath(e.ID)); err != nil {
			t.Errorf("%s: %v", e.ID, err)
		}
	}
}

// goldenCase is one fixed golden: literal rows rendered by a renderer
// whose live output embeds wall-clock measurements. Rendering live
// timings would make the goldens machine-dependent, so these snapshots
// pin the *format* (column layout, units, footnotes) against fixed
// values instead.
type goldenCase struct {
	name   string
	render func() string
}

// fixedGoldens returns the fixed goldens, named by experiment id (or
// <id>-csv for a CSV file).
func fixedGoldens(t *testing.T) []goldenCase {
	return []goldenCase{
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

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
