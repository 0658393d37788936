package expt

import (
	"testing"
)

// TestSelectionsOnSuite pins what each selection takes from the Tiny
// suite (TwtrT, WebT, UnifT) and from suites missing a side.
func TestSelectionsOnSuite(t *testing.T) {
	ds := Suite(Tiny)
	names := func(sel Selection, ds []Dataset) string {
		picked, err := sel.Pick(ds)
		if err != nil {
			return "error"
		}
		var out string
		for _, d := range picked {
			out += d.Name + " "
		}
		return out
	}
	webFirst := []Dataset{ds[2], ds[1], ds[0]}
	for _, c := range []struct {
		sel  Selection
		ds   []Dataset
		want string
	}{
		{AllDatasets, ds, "TwtrT WebT UnifT "},
		{SocialOnly, ds, "TwtrT "},
		{SocialOnly, ds[1:], "WebT "},
		{Contrast, ds, "TwtrT WebT "},
		{Contrast, webFirst, "WebT TwtrT "},
		{Contrast, ds[2:], "UnifT "},
		{ContrastPair, ds, "TwtrT WebT "},
		{ContrastPair, webFirst, "TwtrT WebT "},
		{ContrastPair, ds[1:], "error"},
		{ContrastPair, nil, "error"},
		{SocialOnly, nil, ""},
		{Contrast, nil, ""},
	} {
		if got := names(c.sel, c.ds); got != c.want {
			t.Errorf("selection %d on %d datasets = %q, want %q", c.sel, len(c.ds), got, c.want)
		}
	}
}

// TestExperimentIDsUnique: ids name experiments on the command line and
// golden files, so each appears once, and "all" is reserved for running
// every one.
func TestExperimentIDsUnique(t *testing.T) {
	seen := make(map[string]bool)
	for _, e := range Experiments {
		id := e.ID
		if seen[id] || id == "all" || id == "" {
			t.Errorf("bad or repeated experiment id %q", id)
		}
		seen[id] = true
		if e, ok := LookupExperiment(id); !ok || e.ID != id {
			t.Errorf("LookupExperiment(%q) = %v, %v", id, e.ID, ok)
		}
	}
	for _, id := range ParallelBenchGrid {
		if !seen[id] {
			t.Errorf("ParallelBenchGrid names unknown experiment %q", id)
		}
	}
}
