package obs

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// sample builds a registry the way a run would, with the measurement knobs
// (wall, gauges) parameterized so tests can vary timing while keeping the
// deterministic facts fixed.
func sample(gaugeVal float64) *Registry {
	r := NewRegistry()
	r.Counter("sim.accesses").Add(1000)
	r.Counter("runctl.stage_runs").Add(4)
	r.Gauge("bench.speedup").Set(gaugeVal)
	r.Histogram("spmv.traversal_ms").Observe(gaugeVal)
	sp := r.Span("reorder/TwtrT/GO")
	sp.AddEvents(2048)
	sp.AddBytes(8192)
	return r
}

func TestNormalizedStripsMeasurementsOnly(t *testing.T) {
	a := sample(1.5).Manifest(Meta{Tool: "t", Command: "c", Parallel: 1, GoMaxProcs: 4,
		StartedAt: "2026-08-05T00:00:00Z", WallMS: 12})
	b := sample(9.9).Manifest(Meta{Tool: "t", Command: "c", Parallel: 8, GoMaxProcs: 2,
		StartedAt: "2026-08-05T01:00:00Z", WallMS: 99})
	// Simulate differing span wall clocks.
	a.Spans[0].WallMS, b.Spans[0].WallMS = 3, 7

	if equal(a, b) != true {
		t.Fatal("manifests with identical facts but different measurements are not Equal")
	}
	n := a.Normalized()
	if n.StartedAt != "" || n.Parallel != 0 || n.GoMaxProcs != 0 || n.WallMS != 0 || n.Gauges != nil {
		t.Errorf("normalized kept measurements: %+v", n)
	}
	if n.Spans[0].WallMS != 0 {
		t.Error("normalized kept span wall")
	}
	if h := n.Histograms["spmv.traversal_ms"]; h.Count != 1 || h.Sum != 0 {
		t.Errorf("normalized histogram = %+v", h)
	}
	// Facts survive.
	if n.Counters["sim.accesses"] != 1000 || n.Spans[0].Events != 2048 {
		t.Errorf("normalized dropped facts: %+v", n)
	}
}

func TestEqualDetectsFactDrift(t *testing.T) {
	a := sample(1).Manifest(Meta{Tool: "t"})
	r := sample(1)
	r.Counter("sim.accesses").Add(1) // one extra access
	b := r.Manifest(Meta{Tool: "t"})
	if equal(a, b) {
		t.Fatal("fact drift not detected")
	}
}

func TestManifestFileRoundTrip(t *testing.T) {
	m := sample(2).Manifest(Meta{Tool: "localitylab", Command: "experiment all",
		Parallel: 2, GoMaxProcs: 2, StartedAt: "2026-08-05T00:00:00Z", WallMS: 5})
	path := filepath.Join(t.TempDir(), "m.json")
	if err := WriteManifestFile(path, m); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil {
		t.Fatal(err)
	} else if fi.Mode().Perm() != 0o644 {
		t.Errorf("manifest file mode = %v, want -rw-r--r--", fi.Mode().Perm())
	}
	got, err := ReadManifestFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ea, _ := m.Encode()
	eb, _ := got.Encode()
	if string(ea) != string(eb) {
		t.Errorf("round trip changed manifest:\n%s\nvs\n%s", ea, eb)
	}
}

// TestWriteManifestFileIsAtomic: overwriting an existing manifest must
// go through a temp file + rename, never truncate-then-write in place,
// and must leave no temp debris behind on success.
func TestWriteManifestFileIsAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.json")
	first := sample(1).Manifest(Meta{Tool: "t"})
	if err := WriteManifestFile(path, first); err != nil {
		t.Fatal(err)
	}
	// An open handle on the old version keeps reading the old complete
	// bytes even while the new version is written: rename replaces the
	// directory entry, it never truncates the inode a reader holds.
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	second := sample(2).Manifest(Meta{Tool: "t"})
	if err := WriteManifestFile(path, second); err != nil {
		t.Fatal(err)
	}
	oldData, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	if wantOld, _ := first.Encode(); string(oldData) != string(wantOld) {
		t.Error("old reader saw torn or new bytes: the write was not a rename")
	}
	got, err := ReadManifestFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !equal(got, second) {
		t.Error("path does not hold the new manifest")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "m.json" {
			t.Errorf("temp debris left behind: %q", e.Name())
		}
	}
}

func TestDecodeManifestRejectsBadInput(t *testing.T) {
	if _, err := DecodeManifest([]byte("{")); err == nil {
		t.Error("truncated JSON accepted")
	}
	if _, err := DecodeManifest([]byte(`{"version": 99}`)); err == nil {
		t.Error("future version accepted")
	}
	if _, err := ReadManifestFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestDiff(t *testing.T) {
	a := sample(1).Manifest(Meta{Tool: "t", WallMS: 10})
	b := sample(2).Manifest(Meta{Tool: "t", WallMS: 20})
	d := Diff(a, b)
	if !d.Clean() {
		t.Fatalf("identical facts reported as drift: %+v", d.Drift)
	}
	if len(d.Timing) == 0 {
		t.Error("timing deltas not reported")
	}

	r := sample(1)
	r.Counter("sim.accesses").Add(5)
	r.Span("reorder/TwtrT/GO").AddEvents(1)
	r.Counter("only.in.b").Inc()
	c := r.Manifest(Meta{Tool: "t"})
	d = Diff(a, c)
	if d.Clean() {
		t.Fatal("drift not detected")
	}
	keys := make(map[string]bool)
	for _, e := range d.Drift {
		keys[e.Key] = true
	}
	for _, want := range []string{"counter:sim.accesses", "counter:only.in.b", "span:reorder/TwtrT/GO:events"} {
		if !keys[want] {
			t.Errorf("drift lacks %s (got %v)", want, keys)
		}
	}
	var out strings.Builder
	d.Render(&out)
	if !strings.Contains(out.String(), "COUNT DRIFT") {
		t.Errorf("render lacks drift header:\n%s", out.String())
	}
	var clean strings.Builder
	Diff(a, a).Render(&clean)
	if !strings.Contains(clean.String(), "no event/count drift") {
		t.Errorf("clean render wrong:\n%s", clean.String())
	}
}

// equal reports whether a and b describe the same work: their normalized
// encodings are byte-identical.
func equal(a, b Manifest) bool {
	ea, erra := a.Normalized().Encode()
	eb, errb := b.Normalized().Encode()
	return erra == nil && errb == nil && string(ea) == string(eb)
}
