package core

import (
	"testing"

	"graphlocality/internal/gen"
	"graphlocality/internal/trace"
)

func TestSimulateSpMVNUMAAccounting(t *testing.T) {
	g := gen.WebGraph(gen.DefaultWebGraph(2048, 6, 2))
	cfg := smallCache()
	res := SimulateSpMVNUMA(g, SimOptions{Cache: cfg, Threads: 4, Interval: 256}, 2)
	if len(res.Sockets) != 2 {
		t.Fatalf("sockets = %d", len(res.Sockets))
	}
	var accesses uint64
	for _, s := range res.Sockets {
		accesses += s.Accesses
	}
	if accesses != trace.CountAccesses(g) {
		t.Errorf("socket accesses %d != total %d", accesses, trace.CountAccesses(g))
	}
	var misses uint64
	for _, s := range res.Sockets {
		misses += s.Misses
	}
	if misses != res.TotalMisses {
		t.Errorf("TotalMisses %d != sum %d", res.TotalMisses, misses)
	}
	// Work must actually be split: both sockets see traffic.
	if res.Sockets[0].Accesses == 0 || res.Sockets[1].Accesses == 0 {
		t.Error("one socket idle")
	}
}

func TestSimulateSpMVNUMADuplicationCost(t *testing.T) {
	// Two half-size caches see more total misses than one full-size
	// cache: shared hot data is duplicated across sockets.
	g := gen.SocialNetwork(12, 12, 4)
	full := smallCache()
	half := full
	half.Sets = full.Sets / 2
	single := SimulateSpMV(g, SimOptions{Cache: full, Threads: 4, Interval: 256})
	dual := SimulateSpMVNUMA(g, SimOptions{Cache: half, Threads: 4, Interval: 256}, 2)
	if dual.TotalMisses <= single.Cache.Misses {
		t.Errorf("dual-socket misses %d not above single shared cache %d",
			dual.TotalMisses, single.Cache.Misses)
	}
}

func TestSimulateSpMVNUMADegenerateArgs(t *testing.T) {
	g := gen.Ring(100)
	res := SimulateSpMVNUMA(g, SimOptions{Cache: smallCache()}, 0)
	if len(res.Sockets) != 1 {
		t.Errorf("degenerate sockets = %d, want 1", len(res.Sockets))
	}
	if res.Sockets[0].Accesses != trace.CountAccesses(g) {
		t.Error("degenerate run lost accesses")
	}
	// Default cache config path.
	def := SimulateSpMVNUMA(g, SimOptions{Threads: 2, Interval: 16}, 2)
	if def.TotalMisses == 0 {
		t.Error("default-config NUMA run produced no misses")
	}
}
