package expt

import (
	"strings"
	"testing"

	"graphlocality/internal/reorder"
)

// tinySession returns a session over the Tiny suite with light settings.
func tinySession() (*Session, []Dataset) {
	s := NewSession()
	s.Repeats = 1
	return s, Suite(Tiny)
}

func TestSuiteShapes(t *testing.T) {
	s, ds := tinySession()
	if len(ds) < 3 {
		t.Fatal("tiny suite too small")
	}
	var sawSN, sawWG bool
	for _, d := range ds {
		g := s.Graph(d)
		if g.NumVertices() == 0 || g.NumEdges() == 0 {
			t.Fatalf("%s: empty graph", d.Name)
		}
		switch d.Kind {
		case SocialNetwork:
			sawSN = true
		case WebGraph:
			sawWG = true
		}
	}
	if !sawSN || !sawWG {
		t.Error("suite must include both SN and WG datasets")
	}
	std := Suite(Standard)
	if len(std) < 5 {
		t.Error("standard suite too small")
	}
	if _, ok := FindDataset(Tiny, ds[0].Name); !ok {
		t.Error("FindDataset failed")
	}
	if _, ok := FindDataset(Tiny, "nope"); ok {
		t.Error("FindDataset found a ghost")
	}
}

func TestSessionMemoization(t *testing.T) {
	s, ds := tinySession()
	g1 := s.Graph(ds[0])
	g2 := s.Graph(ds[0])
	if g1 != g2 {
		t.Error("graph not memoized")
	}
	alg := reorder.DegreeSort{}
	r1 := s.Reorder(ds[0], alg)
	r2 := s.Reorder(ds[0], alg)
	if &r1.Perm[0] != &r2.Perm[0] {
		t.Error("reorder not memoized")
	}
	h1 := s.Relabeled(ds[0], alg)
	h2 := s.Relabeled(ds[0], alg)
	if h1 != h2 {
		t.Error("relabeled graph not memoized")
	}
	// Identity short-circuits.
	if s.Relabeled(ds[0], reorder.Identity{}) != g1 {
		t.Error("identity should return the original graph")
	}
}

func TestTableI(t *testing.T) {
	s, ds := tinySession()
	rows := TableI(s, ds)
	if len(rows) != len(ds) {
		t.Fatalf("rows = %d", len(rows))
	}
	out := RenderTableI(rows)
	for _, d := range ds {
		if !strings.Contains(out, d.Name) {
			t.Errorf("render missing %s:\n%s", d.Name, out)
		}
	}
}

func TestTableII(t *testing.T) {
	s, ds := tinySession()
	algs := []reorder.Algorithm{reorder.Identity{}, reorder.DegreeSort{}, reorder.MustNew("sb++")}
	rows := TableII(s, ds[:1], algs)
	// Identity skipped.
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	for _, r := range rows {
		if r.Preprocess <= 0 {
			t.Errorf("%s: no preprocessing time", r.Algorithm)
		}
	}
	out := RenderTableII(rows)
	if !strings.Contains(out, "DegSort") || !strings.Contains(out, "SB++") {
		t.Errorf("render:\n%s", out)
	}
}

func TestTableIIIShapes(t *testing.T) {
	s, ds := tinySession()
	algs := []reorder.Algorithm{reorder.Identity{}, reorder.DegreeSort{}}
	rows := TableIII(s, ds[:2], algs)
	if len(rows) != 4 { // 2 datasets x 2 thresholds
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	for _, r := range rows {
		if len(r.Misses) != len(algs) {
			t.Fatal("miss column count mismatch")
		}
	}
	// Higher threshold -> fewer or equal misses.
	if rows[0].MinDegree > rows[1].MinDegree {
		if rows[0].Misses[0] > rows[1].Misses[0] {
			t.Error("higher threshold yielded more misses")
		}
	} else if rows[1].Misses[0] > rows[0].Misses[0] {
		t.Error("higher threshold yielded more misses")
	}
	_ = RenderTableIII(rows)
}

func TestTableIVShapes(t *testing.T) {
	s, ds := tinySession()
	algs := []reorder.Algorithm{reorder.Identity{}, reorder.Random{Seed: 3}}
	rows := TableIV(s, ds[:1], algs)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	var initial, random TableIVRow
	for _, r := range rows {
		switch r.Algorithm {
		case "Initial":
			initial = r
		case "Random":
			random = r
		}
		if r.Time <= 0 {
			t.Errorf("%s: no time measured", r.Algorithm)
		}
		if r.IdlePct < 0 || r.IdlePct > 100 {
			t.Errorf("%s: idle %.1f", r.Algorithm, r.IdlePct)
		}
		if r.L3Misses == 0 || r.TLBMisses == 0 {
			t.Errorf("%s: zero misses", r.Algorithm)
		}
	}
	// Random shuffle must not *improve* L3 misses on a structured graph.
	if random.L3Misses < initial.L3Misses {
		t.Errorf("random (%d) beat initial (%d) on L3 misses", random.L3Misses, initial.L3Misses)
	}
	_ = RenderTableIV(rows)
}

func TestTableVShapes(t *testing.T) {
	s, ds := tinySession()
	algs := []reorder.Algorithm{reorder.Identity{}, reorder.MustNew("sb++")}
	rows := TableV(s, ds[:1], algs)
	for _, r := range rows {
		if r.ECSPct <= 0 || r.ECSPct > 100 {
			t.Errorf("%s ECS = %.1f", r.Algorithm, r.ECSPct)
		}
	}
	_ = RenderTableV(rows)
}

func TestTableVIContrast(t *testing.T) {
	s, ds := tinySession()
	rows := TableVI(s, ds)
	byName := map[string]TableVIRow{}
	for _, r := range rows {
		byName[r.Dataset] = r
		if r.CSCMisses == 0 || r.CSRMisses == 0 {
			t.Errorf("%s: zero misses", r.Dataset)
		}
	}
	// Paper Table VI: web graphs have faster CSR (push-read) traversal.
	if web, ok := byName["WebT"]; ok {
		if web.CSRMisses >= web.CSCMisses {
			t.Errorf("web graph: CSR misses %d not below CSC %d", web.CSRMisses, web.CSCMisses)
		}
	} else {
		t.Error("no web dataset in suite")
	}
	_ = RenderTableVI(rows)
}

func TestTableVIIShapes(t *testing.T) {
	s, ds := tinySession()
	rows := TableVII(s, ds[:1])
	r := rows[0]
	if r.SBPPIterations > r.SBIterations {
		t.Errorf("SB++ iterations %d exceed SB %d", r.SBPPIterations, r.SBIterations)
	}
	if r.SBPPPreproc <= 0 || r.SBPreproc <= 0 {
		t.Error("missing preprocessing times")
	}
	_ = RenderTableVII(rows)
}

func TestFig1Shapes(t *testing.T) {
	s, ds := tinySession()
	series := Fig1(s, ds[0], []reorder.Algorithm{reorder.Identity{}, reorder.DegreeSort{}})
	if len(series) != 2 {
		t.Fatalf("series = %d", len(series))
	}
	for _, sr := range series {
		if len(sr.Labels) == 0 {
			t.Errorf("%s: empty series", sr.Name)
		}
		for _, v := range sr.Values {
			if v < 0 || v > 100 {
				t.Errorf("%s: miss rate %.2f", sr.Name, v)
			}
		}
	}
	out := RenderSeries("Fig1", series)
	if !strings.Contains(out, "Initial") {
		t.Error("render missing series name")
	}
}

func TestFig2Shapes(t *testing.T) {
	s, ds := tinySession()
	snaps := Fig2(s, ds[0])
	if len(snaps) < 2 {
		t.Fatalf("snapshots = %d, want >= 2 (initial + iterations)", len(snaps))
	}
	if snaps[0].Iteration != 0 {
		t.Error("first snapshot must be the initial state")
	}
	// The paper's observation: max degree collapses across iterations.
	last := snaps[len(snaps)-1]
	if last.MaxDegree >= snaps[0].MaxDegree {
		t.Errorf("GCC max degree did not shrink: %d -> %d", snaps[0].MaxDegree, last.MaxDegree)
	}
	_ = RenderFig2(snaps)
}

func TestFig3Shapes(t *testing.T) {
	s, ds := tinySession()
	var web Dataset
	for _, d := range ds {
		if d.Kind == WebGraph {
			web = d
		}
	}
	series := Fig3(s, web)
	if len(series) != 2 {
		t.Fatal("want 2 series")
	}
	_ = RenderSeries("Fig3", series)
}

func TestFig4Contrast(t *testing.T) {
	s, ds := tinySession()
	var social, web Dataset
	for _, d := range ds {
		switch d.Kind {
		case SocialNetwork:
			social = d
		case WebGraph:
			web = d
		}
	}
	series := Fig4(s, social, web)
	// Mean asymmetricity of the web graph must exceed the social one.
	mean := func(sr Series) float64 {
		var t float64
		for _, v := range sr.Values {
			t += v
		}
		return t / float64(len(sr.Values))
	}
	if mean(series[1]) <= mean(series[0]) {
		t.Errorf("web asymmetricity %.1f not above social %.1f", mean(series[1]), mean(series[0]))
	}
	_ = RenderSeries("Fig4", series)
}

func TestFig5AndFig6(t *testing.T) {
	s, ds := tinySession()
	f5 := Fig5(s, ds[:2])
	if len(f5) != 2 {
		t.Fatal("Fig5 rows")
	}
	out5 := RenderFig5(f5)
	if !strings.Contains(out5, ds[0].Name) {
		t.Error("Fig5 render missing dataset")
	}
	f6 := Fig6(s, ds)
	for _, r := range f6 {
		if len(r.Curve.H) == 0 {
			t.Errorf("%s: empty coverage curve", r.Dataset)
		}
	}
	// Web graph: in-hub coverage above out-hub coverage at the last point.
	for _, r := range f6 {
		if r.Kind == WebGraph {
			last := len(r.Curve.H) - 2 // second-to-last: below |V|
			if last < 0 {
				last = 0
			}
			if r.Curve.InHubPct[last] <= r.Curve.OutHubPct[last] {
				t.Errorf("%s: in-hub coverage %.1f not above out-hub %.1f",
					r.Dataset, r.Curve.InHubPct[last], r.Curve.OutHubPct[last])
			}
		}
	}
	_ = RenderFig6(f6)
}

func TestEDRExperiment(t *testing.T) {
	s, ds := tinySession()
	var web Dataset
	for _, d := range ds {
		if d.Kind == WebGraph {
			web = d
		}
	}
	rows := EDRExperiment(s, []Dataset{web})
	r := rows[0]
	if r.FullPreproc <= 0 || r.EDRPreproc <= 0 {
		t.Error("preprocessing times missing")
	}
	// EDR must not blow up misses catastrophically (within 2x of full RO).
	if r.EDRMisses > 2*r.FullMisses {
		t.Errorf("EDR misses %d far above full RO %d", r.EDRMisses, r.FullMisses)
	}
	_ = RenderEDR(rows)
}

func TestFrameworkGap(t *testing.T) {
	s, ds := tinySession()
	rows := FrameworkGap(s, ds[:1])
	r := rows[0]
	if r.EngineMS <= 0 || r.NaiveMS <= 0 {
		t.Fatalf("times: %+v", r)
	}
	// The naive map-based traversal must be slower. The race detector's
	// instrumentation penalizes the parallel engine far more than the
	// sequential naive loop, so the speedup assertion only holds without it.
	if !raceEnabled && r.Speedup <= 1 {
		t.Errorf("engine not faster than naive: %.2fx", r.Speedup)
	}
	_ = RenderGap(rows)
}
