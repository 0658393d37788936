package main

import (
	"errors"
	"testing"

	"graphlocality/internal/core"
	"graphlocality/internal/gen"
)

func TestCheckerCatchesCorruptedResults(t *testing.T) {
	g := gen.SocialNetwork(8, 8, 1)
	good := core.SimulateSpMV(g, core.SimOptions{PerVertex: true})
	corrupt := func(f func(r *core.SimResult)) core.SimResult {
		r := good
		r.VertexMisses = append([]uint32(nil), good.VertexMisses...)
		f(&r)
		return r
	}

	t.Run("a pass differs from the first", func(t *testing.T) {
		chk := newChecker()
		chk.observe("g", good, nil)
		chk.observe("g", corrupt(func(r *core.SimResult) { r.Cache.Misses++ }), nil)
		chk.observe("g", good, nil)
		if chk.attempted() != 3 || chk.failedOps() != 1 {
			t.Fatalf("attempted %d failed %d, want 3 and 1", chk.attempted(), chk.failedOps())
		}
	})

	t.Run("the first pass differs from the reference", func(t *testing.T) {
		chk := newChecker()
		bad := corrupt(func(r *core.SimResult) { r.VertexMisses[0]++ })
		for i := 0; i < 4; i++ {
			chk.observe("g", bad, nil)
		}
		if chk.failedOps() != 0 {
			t.Fatalf("equal passes failed %d ops", chk.failedOps())
		}
		chk.verify("g", core.SimulateSpMVReference(g, core.SimOptions{PerVertex: true}))
		if chk.failedOps() != 4 {
			t.Fatalf("failed %d ops, want all 4 of the corrupted key", chk.failedOps())
		}
		if len(chk.errs) == 0 {
			t.Fatal("no failure message kept")
		}
	})

	t.Run("an op reports its own failure", func(t *testing.T) {
		chk := newChecker()
		chk.observe("g", nil, errors.New("invalid permutation"))
		chk.observe("h", good, nil)
		chk.verify("h", core.SimulateSpMVReference(g, core.SimOptions{PerVertex: true}))
		if chk.attempted() != 2 || chk.failedOps() != 1 {
			t.Fatalf("attempted %d failed %d, want 2 and 1", chk.attempted(), chk.failedOps())
		}
	})
}
