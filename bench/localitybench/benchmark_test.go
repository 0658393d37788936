package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"graphlocality/internal/expt"
)

// benchmarkJSON is BENCHMARK.json; decoding rejects any key not listed.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}

	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d is %q, want %q: %q", i, w.Name, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}

	seen := map[string]bool{}
	checkName := func(name, unit, better string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("metric name %q is malformed or repeated", name)
		}
		seen[name] = true
		if !unitRE.MatchString(unit) || (better != lower && better != higher) {
			t.Errorf("metric %s: unit %q, better %q", name, unit, better)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, want %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		want := endToEnd[i]
		if m.Bound == nil || (metric{m.Name, m.Unit, m.Better, *m.Bound}) != want {
			t.Errorf("end-to-end metric %d is %+v, want %+v", i, m, want)
		}
		if want.Bound <= 0 || want.Bound > 0.25 || (want.Name != "setup_s" && want.Bound > endToEnd[0].Bound) {
			t.Errorf("metric %s: bound %v", want.Name, want.Bound)
		}
		checkName(m.Name, m.Unit, m.Better)
	}
	if endToEnd[0] != (metric{"setup_s", "s", lower, endToEnd[0].Bound}) {
		t.Errorf("the first end-to-end metric is %+v, want setup_s", endToEnd[0])
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, want %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if (metric{m.Name, m.Unit, m.Better, 0}) != perLayer[i] {
			t.Errorf("per-layer metric %d is %+v, want %+v", i, m, perLayer[i])
		}
		checkName(m.Name, m.Unit, m.Better)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 || len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %q", b.RunSeconds, b.Paths)
	}
}

// The benchmark's graphs are expt's standard suite at the suite's own
// seeds. Only the two cheapest generators are rebuilt here, to keep the
// test fast under the race detector; the others differ in literals only.
func TestStandardMatchesSuite(t *testing.T) {
	suite := expt.Suite(expt.Standard)
	if len(suite) != len(standard) {
		t.Fatalf("suite has %d datasets, the benchmark %d", len(suite), len(standard))
	}
	for i, d := range suite {
		if d.Name != standard[i].name {
			t.Fatalf("dataset %d is %s, want %s", i, standard[i].name, d.Name)
		}
		if d.Name != "SKS" && d.Name != "UnifS" {
			continue
		}
		if !standard[i].build(0, standard[i].seed, nil, 0).Equal(d.Build()) {
			t.Errorf("%s differs from the suite's graph", d.Name)
		}
	}
}
