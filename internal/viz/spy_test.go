package viz

import (
	"strings"
	"testing"

	"graphlocality/internal/gen"
	"graphlocality/internal/graph"
	"graphlocality/internal/reorder"
)

func TestSpyCountsAllEdges(t *testing.T) {
	g := gen.ErdosRenyi(500, 3000, 3)
	p := Spy(g, 16)
	var total uint64
	for _, row := range p.Cell {
		for _, c := range row {
			total += c
		}
	}
	if total != g.NumEdges() {
		t.Fatalf("plot holds %d edges, want %d", total, g.NumEdges())
	}
	if p.Max == 0 {
		t.Error("max cell empty")
	}
}

func TestSpyDiagonalOrdering(t *testing.T) {
	// A ring is perfectly diagonal.
	g := gen.Ring(1024)
	p := Spy(g, 32)
	if m := p.DiagonalMass(1); m < 0.99 {
		t.Errorf("ring diagonal mass = %.3f, want ~1", m)
	}
	// Scrambling it spreads the mass off-diagonal.
	scrambled := g.Relabel(reorder.Perm(reorder.Random{Seed: 3}, g))
	ps := Spy(scrambled, 32)
	if ps.DiagonalMass(1) >= p.DiagonalMass(1) {
		t.Error("scrambled ring should have less diagonal mass")
	}
}

func TestSpyClusteringVisible(t *testing.T) {
	// Rabbit-Order pulls a scrambled web graph's mass toward the diagonal.
	base := gen.WebGraph(gen.DefaultWebGraph(4096, 8, 7))
	scrambled := base.Relabel(reorder.Perm(reorder.Random{Seed: 5}, base))
	ro := scrambled.Relabel(reorder.Perm(reorder.MustNew("ro"), scrambled))
	before := Spy(scrambled, 32).DiagonalMass(2)
	after := Spy(ro, 32).DiagonalMass(2)
	if after <= before {
		t.Errorf("RO diagonal mass %.3f not above scrambled %.3f", after, before)
	}
}

func TestRenderShapes(t *testing.T) {
	g := gen.Star(100)
	p := Spy(g, 8)
	var b strings.Builder
	if err := p.Render(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != 10 { // res rows + 2 border lines
		t.Fatalf("render has %d lines", len(lines))
	}
	for _, l := range lines {
		if len([]rune(l)) != 10 { // res cols + 2 border chars
			t.Fatalf("row width %d: %q", len(l), l)
		}
	}
}

func TestWritePGM(t *testing.T) {
	g := gen.ErdosRenyi(200, 1000, 1)
	p := Spy(g, 8)
	var b strings.Builder
	if err := p.WritePGM(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "P2\n8 8\n255\n") {
		t.Errorf("bad PGM header: %q", out[:20])
	}
	if lines := strings.Count(out, "\n"); lines != 3+8 {
		t.Errorf("PGM line count %d", lines)
	}
}

func TestSpyDegenerate(t *testing.T) {
	empty := Spy(graph.FromEdges(0, nil), 4)
	if empty.DiagonalMass(1) != 0 {
		t.Error("empty graph mass should be 0")
	}
	var b strings.Builder
	if err := empty.Render(&b); err != nil {
		t.Fatal(err)
	}
	// Resolution clamp.
	p := Spy(gen.Ring(10), 0)
	if p.Res != 1 {
		t.Errorf("res = %d, want clamped 1", p.Res)
	}
}
