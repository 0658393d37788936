package core

import (
	"context"
	"testing"

	"graphlocality/internal/gen"
)

// TestSimulateSpMVCancellation checks the trace-based simulation honours a
// dead context: it stops within one poll interval and marks the partial
// counters Canceled.
func TestSimulateSpMVCancellation(t *testing.T) {
	g := gen.ErdosRenyi(2000, 10000, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := SimulateSpMV(g, SimOptions{Cache: smallCache(), Ctx: ctx})
	if !res.Canceled {
		t.Fatal("simulation under a dead context not marked Canceled")
	}
	full := SimulateSpMV(g, SimOptions{Cache: smallCache()})
	if res.Cache.Accesses >= full.Cache.Accesses {
		t.Errorf("cancelled run simulated %d accesses, full run %d — no early exit",
			res.Cache.Accesses, full.Cache.Accesses)
	}
}

// TestSimulateSpMVContextCompletes checks an alive context changes nothing.
func TestSimulateSpMVContextCompletes(t *testing.T) {
	g := gen.ErdosRenyi(500, 3000, 2)
	plain := SimulateSpMV(g, SimOptions{Cache: smallCache()})
	withCtx := SimulateSpMV(g, SimOptions{Cache: smallCache(), Ctx: context.Background()})
	if withCtx.Canceled {
		t.Fatal("uncancelled run marked Canceled")
	}
	if plain.Cache.Accesses != withCtx.Cache.Accesses || plain.Cache.Misses != withCtx.Cache.Misses {
		t.Errorf("ctx-aware run diverged: %+v vs %+v", withCtx.Cache, plain.Cache)
	}
}
