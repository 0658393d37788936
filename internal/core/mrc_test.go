package core

import (
	"testing"

	"graphlocality/internal/gen"
	"graphlocality/internal/graph"
	"graphlocality/internal/reorder"
	"graphlocality/internal/trace"
)

func TestMRCMonotoneNonIncreasing(t *testing.T) {
	g := gen.WebGraph(gen.DefaultWebGraph(2048, 6, 1))
	p := ReuseDistances(g, trace.Pull, 64)
	c := p.MRC()
	if len(c.Lines) == 0 {
		t.Fatal("empty curve")
	}
	for i := 1; i < len(c.MissRatio); i++ {
		if c.MissRatio[i] > c.MissRatio[i-1]+1e-12 {
			t.Fatalf("MRC not non-increasing at size %d", c.Lines[i])
		}
	}
	// The largest size leaves only cold misses.
	last := c.MissRatio[len(c.MissRatio)-1]
	cold := float64(p.Cold) / float64(p.Total)
	if last < cold-1e-12 || last > cold+0.05 {
		t.Errorf("tail miss ratio %.4f, cold ratio %.4f", last, cold)
	}
	for i, s := range c.Lines {
		if s != uint64(1)<<uint(i) {
			t.Fatalf("sizes not powers of two: %v", c.Lines)
		}
	}
}

func TestMRCEmptyProfile(t *testing.T) {
	var p ReuseProfile
	if len(p.MRC().Lines) != 0 {
		t.Error("empty profile should yield empty curve")
	}
}

func TestWorkingSetLines(t *testing.T) {
	c := MissRatioCurve{
		Lines:     []uint64{1, 2, 4, 8},
		MissRatio: []float64{0.9, 0.5, 0.2, 0.1},
	}
	if got := c.WorkingSetLines(0.5); got != 2 {
		t.Errorf("WorkingSetLines(0.5) = %d, want 2", got)
	}
	if got := c.WorkingSetLines(0.05); got != 0 {
		t.Errorf("unreachable target should return 0, got %d", got)
	}
}

func TestMRCBetterOrderingSmallerWorkingSet(t *testing.T) {
	// A clustered ordering reaches a given miss ratio with a smaller
	// cache than a scrambled one.
	base := gen.WebGraph(gen.DefaultWebGraph(4096, 8, 4))
	scrambled := base.Relabel(reorder.Perm(reorder.Random{Seed: 5}, base))
	ro := scrambled.Relabel(reorder.Perm(reorder.MustNew("ro"), scrambled))

	wsScrambled := ReuseDistances(scrambled, trace.Pull, 64).MRC().WorkingSetLines(0.3)
	wsRO := ReuseDistances(ro, trace.Pull, 64).MRC().WorkingSetLines(0.3)
	if wsScrambled == 0 || wsRO == 0 {
		t.Skip("target ratio unreachable at this scale")
	}
	if wsRO > wsScrambled {
		t.Errorf("RO working set %d lines > scrambled %d", wsRO, wsScrambled)
	}
}

func TestCompressedAdjacencyBytes(t *testing.T) {
	// Vertex 0 -> {1,2,3}: first gap zigzag(1-0)=2 (1 byte), then gaps
	// 1,1 (1 byte each) = 3 bytes.
	g := graph.FromEdges(4, []graph.Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 0, Dst: 3}})
	if got := CompressedAdjacencyBytes(g); got != 3 {
		t.Errorf("bytes = %d, want 3", got)
	}
	// A big negative first gap costs more.
	h := graph.FromEdges(200, []graph.Edge{{Src: 199, Dst: 0}})
	if got := CompressedAdjacencyBytes(h); got != 2 {
		// zigzag(-199) = 397 -> 2 varint bytes
		t.Errorf("bytes = %d, want 2", got)
	}
}

func TestCompressionRatioImprovesWithClustering(t *testing.T) {
	base := gen.WebGraph(gen.DefaultWebGraph(4096, 8, 9))
	scrambled := base.Relabel(reorder.Perm(reorder.Random{Seed: 2}, base))
	ro := scrambled.Relabel(reorder.Perm(reorder.MustNew("ro"), scrambled))
	if CompressionRatio(ro) <= CompressionRatio(scrambled) {
		t.Errorf("RO compression %.3f not above scrambled %.3f",
			CompressionRatio(ro), CompressionRatio(scrambled))
	}
	if CompressionRatio(graph.FromEdges(3, nil)) != 0 {
		t.Error("edgeless graph ratio should be 0")
	}
}
