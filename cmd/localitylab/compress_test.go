package main

import (
	"context"
	"path/filepath"
	"testing"

	"graphlocality/internal/gen"
	"graphlocality/internal/graph"
)

func TestCompressReport(t *testing.T) {
	g := gen.SocialNetwork(9, 8, 1)
	rows, err := compressReport(context.Background(), g, []string{"random", "ro"}, graph.SegmentedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	byLabel := map[string]compressRow{}
	for _, r := range rows {
		if r.BytesPerEdge <= 0 {
			t.Errorf("%s: bytes/edge = %v", r.Label, r.BytesPerEdge)
		}
		byLabel[r.Label] = r
	}
	// A locality-improving ordering shrinks the varint gaps; it must not
	// cost more than a random shuffle of the same graph.
	if ro, rnd := byLabel["ro"], byLabel["random"]; ro.BytesPerEdge > rnd.BytesPerEdge {
		t.Errorf("ro bytes/edge %.4f exceeds random %.4f", ro.BytesPerEdge, rnd.BytesPerEdge)
	}
	if _, err := compressReport(context.Background(), g, []string{"no-such-alg"}, graph.SegmentedOptions{}); err == nil {
		t.Error("bad spec accepted")
	}
}

func TestCmdCompressWritesVerifiedContainer(t *testing.T) {
	g := gen.WebGraph(gen.DefaultWebGraph(512, 6, 3))
	dir := t.TempDir()
	bin := filepath.Join(dir, "g.seg")
	if err := saveGraph(g, bin); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "g.segcsr")
	if err := cmdCompress([]string{"-graph", bin, "-out", seg, "-segverts", "64", "-algs", "random"}); err != nil {
		t.Fatal(err)
	}
	sg, err := graph.OpenSegmented(seg, graph.SegmentedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sg.Close()
	if sg.NumEdges() != g.NumEdges() || sg.NumVertices() != g.NumVertices() {
		t.Error("written container dimensions diverge")
	}
	if err := cmdCompress([]string{"-graph", filepath.Join(dir, "missing.seg")}); err == nil {
		t.Error("missing graph accepted")
	}
	if err := cmdCompress(nil); err == nil {
		t.Error("missing -graph flag accepted")
	}
}
