package main

import (
	"os"
	"path/filepath"
	"testing"

	"graphlocality/internal/expt"
	"graphlocality/internal/gen"
	"graphlocality/internal/trace"
)

func TestParseDirection(t *testing.T) {
	cases := map[string]trace.Direction{
		"pull": trace.Pull, "push": trace.Push, "pushread": trace.PushRead,
	}
	for name, want := range cases {
		got, err := parseDirection(name)
		if err != nil || got != want {
			t.Errorf("parseDirection(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := parseDirection("sideways"); err == nil {
		t.Error("bad direction accepted")
	}
}

func TestGraphFileRoundTrip(t *testing.T) {
	g := gen.Ring(100)
	path := filepath.Join(t.TempDir(), "g.bin")
	if err := saveGraph(g, path); err != nil {
		t.Fatal(err)
	}
	h, err := loadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(h) {
		t.Error("file round trip changed the graph")
	}
	// Graphs commit through the shared atomic protocol, so they land with
	// mode 0644 like every other committed file, not CreateTemp's 0600.
	if fi, err := os.Stat(path); err != nil {
		t.Fatal(err)
	} else if fi.Mode().Perm() != 0o644 {
		t.Errorf("graph file mode = %v, want -rw-r--r--", fi.Mode().Perm())
	}
	if _, err := loadGraph(filepath.Join(t.TempDir(), "missing.bin")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestDatasetFromFile(t *testing.T) {
	g := gen.WebGraph(gen.DefaultWebGraph(2048, 8, 3))
	path := filepath.Join(t.TempDir(), "web.bin")
	if err := saveGraph(g, path); err != nil {
		t.Fatal(err)
	}
	ds, err := datasetFromFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Kind != expt.WebGraph {
		t.Errorf("kind = %v, want WG", ds.Kind)
	}
	if ds.Build().NumEdges() != g.NumEdges() {
		t.Error("dataset graph differs")
	}
	if _, err := datasetFromFile("/does/not/exist"); err == nil {
		t.Error("missing file accepted")
	}
}

func TestHelpersOnSuite(t *testing.T) {
	ds := expt.Suite(expt.Tiny)
	if len(socialOnly(ds)) == 0 {
		t.Error("socialOnly empty")
	}
	if len(contrastOnly(ds)) < 2 {
		t.Error("contrastOnly incomplete")
	}
	s, w, err := contrastPair(ds)
	if err != nil || s.Kind != expt.SocialNetwork || w.Kind != expt.WebGraph {
		t.Errorf("contrastPair = %v %v %v", s.Kind, w.Kind, err)
	}
	if _, _, err := contrastPair(nil); err == nil {
		t.Error("empty suite should fail")
	}
}

func TestMain(m *testing.M) {
	os.Exit(m.Run())
}
