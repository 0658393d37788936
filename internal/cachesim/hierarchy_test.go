package cachesim

import "testing"

func tinyHierarchy() *Hierarchy {
	return NewHierarchy(
		Config{Name: "L1", LineSize: 64, Sets: 2, Ways: 2, Policy: LRU},  // 256 B
		Config{Name: "L2", LineSize: 64, Sets: 8, Ways: 2, Policy: LRU},  // 1 KiB
		Config{Name: "L3", LineSize: 64, Sets: 16, Ways: 4, Policy: LRU}, // 4 KiB
	)
}

func TestHierarchyHitLevels(t *testing.T) {
	h := tinyHierarchy()
	if got := h.Access(0, false); got != 3 {
		t.Fatalf("cold access hit level %d, want memory (3)", got)
	}
	if got := h.Access(0, false); got != 0 {
		t.Fatalf("immediate reuse hit level %d, want L1 (0)", got)
	}
	// Evict line 0 from L1 by filling its set (L1 set count 2: lines 0
	// and 2 share set 0).
	h.Access(2*64, false)
	h.Access(4*64, false)
	h.Access(6*64, false)
	level := h.Access(0, false)
	if level == 0 {
		t.Fatal("line survived L1 eviction pressure")
	}
	if level >= 3 {
		t.Fatalf("line should still be in an outer level, hit %d", level)
	}
}

func TestHierarchyLevelCountsConsistent(t *testing.T) {
	h := tinyHierarchy()
	rng := newTestRNG(3)
	const n = 20000
	for i := 0; i < n; i++ {
		h.Access(uint64(rng.next()%512)*64, rng.next()%4 == 0)
	}
	l1 := h.LevelStats(0)
	l2 := h.LevelStats(1)
	l3 := h.LevelStats(2)
	if l1.Accesses != n {
		t.Errorf("L1 accesses = %d", l1.Accesses)
	}
	// Each level only sees the previous level's misses.
	if l2.Accesses != l1.Misses {
		t.Errorf("L2 accesses %d != L1 misses %d", l2.Accesses, l1.Misses)
	}
	if l3.Accesses != l2.Misses {
		t.Errorf("L3 accesses %d != L2 misses %d", l3.Accesses, l2.Misses)
	}
	// Bigger caches miss less.
	if l3.MissRate() > l1.MissRate()+1e-9 && l3.Accesses > 1000 {
		t.Logf("note: L3 local miss rate %.3f above L1 %.3f (possible with filtered traffic)",
			l3.MissRate(), l1.MissRate())
	}
}

func TestHierarchyPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("empty hierarchy did not panic")
		}
	}()
	NewHierarchy()
}

// The paper's implicit assumption: for random SpMV-like access streams,
// the private levels filter little — most L1 misses also miss L2.
func TestHierarchyRandomStreamBlowsThroughPrivateLevels(t *testing.T) {
	h := tinyHierarchy()
	rng := newTestRNG(11)
	// Random accesses over a footprint 64x the L3.
	for i := 0; i < 50000; i++ {
		h.Access(uint64(rng.next()%(16*1024))*64, false)
	}
	l1 := h.LevelStats(0)
	l2 := h.LevelStats(1)
	if l1.Misses == 0 {
		t.Fatal("no L1 misses?")
	}
	filter := 1 - float64(l2.Misses)/float64(l1.Misses)
	if filter > 0.25 {
		t.Errorf("private levels filtered %.0f%% of random traffic — too much", 100*filter)
	}
}
