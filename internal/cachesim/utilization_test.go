package cachesim

import (
	"errors"
	"testing"
)

// newTracker builds a tracker for a configuration it must accept.
func newTracker(t *testing.T, cfg Config) *UtilizationTracker {
	t.Helper()
	tr, err := NewUtilizationTracker(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestUtilizationSingleWord(t *testing.T) {
	// Touch one word per line over many lines: utilization 1 word/line.
	tr := newTracker(t, Config{Name: "t", LineSize: 64, Sets: 4, Ways: 2, Policy: LRU})
	for i := uint64(0); i < 100; i++ {
		tr.Access(i*64, false)
	}
	st := tr.Stats()
	if st.Evicted != 100 {
		t.Fatalf("accounted %d lines, want 100", st.Evicted)
	}
	if st.MeanWords() != 1 {
		t.Errorf("MeanWords = %v, want 1", st.MeanWords())
	}
	if st.MeanFraction() != 1.0/8 {
		t.Errorf("MeanFraction = %v, want 0.125", st.MeanFraction())
	}
}

func TestUtilizationFullLine(t *testing.T) {
	// Touch all 8 words of each line before moving on.
	tr := newTracker(t, Config{Name: "t", LineSize: 64, Sets: 4, Ways: 2, Policy: LRU})
	for i := uint64(0); i < 50; i++ {
		for w := uint64(0); w < 8; w++ {
			tr.Access(i*64+w*8, false)
		}
	}
	st := tr.Stats()
	if st.MeanWords() != 8 {
		t.Errorf("MeanWords = %v, want 8", st.MeanWords())
	}
	if st.MeanFraction() != 1 {
		t.Errorf("MeanFraction = %v, want 1", st.MeanFraction())
	}
}

func TestUtilizationHitMissAgreesWithPlainCache(t *testing.T) {
	cfg := Config{Name: "t", LineSize: 64, Sets: 8, Ways: 2, Policy: DRRIP}
	tr := newTracker(t, cfg)
	plain := New(cfg)
	rng := newTestRNG(5)
	for i := 0; i < 20000; i++ {
		addr := uint64(rng.next()) & 0xFFFF
		write := rng.next()%3 == 0
		if tr.Access(addr, write) != plain.Access(addr, write) {
			t.Fatalf("tracker diverged from plain cache at access %d", i)
		}
	}
	if tr.CacheStats() != plain.Stats() {
		t.Errorf("stats diverged: %+v vs %+v", tr.CacheStats(), plain.Stats())
	}
	st := tr.Stats()
	var total uint64
	for _, c := range st.Histogram {
		total += c
	}
	if total != st.Evicted {
		t.Errorf("histogram total %d != evicted %d", total, st.Evicted)
	}
}

func TestUtilizationRejectsHugeLines(t *testing.T) {
	_, err := NewUtilizationTracker(Config{Name: "t", LineSize: 1024, Sets: 2, Ways: 1, Policy: LRU})
	var cfgErr *UtilizationConfigError
	if !errors.As(err, &cfgErr) {
		t.Fatalf("1KiB lines: err = %v, want a *UtilizationConfigError", err)
	}
	if _, err := NewUtilizationTracker(Config{Name: "t", LineSize: 512, Sets: 2, Ways: 1, Policy: LRU}); err != nil {
		t.Errorf("512-byte lines: %v", err)
	}
}

// TestUtilizationRejectsPrefetch pins why a prefetching cache is refused.
// With one set and one way, a demand access to line 0 and one to line 1
// (byte 72) fill the way twice: two lines of one word each. A next-line
// prefetch on the first miss would fill line 1 unseen and turn the second
// access into a hit on it, so the tracker would report one line of two
// words.
func TestUtilizationRejectsPrefetch(t *testing.T) {
	cfg := Config{Name: "t", LineSize: 64, Sets: 1, Ways: 1, Policy: LRU}
	tr := newTracker(t, cfg)
	tr.Access(0, false)
	tr.Access(72, false)
	if st := tr.Stats(); st.Evicted != 2 || st.Histogram[1] != 2 {
		t.Errorf("demand-only stats = %+v, want 2 lines of 1 word", st)
	}
	cfg.NextLinePrefetch = true
	_, err := NewUtilizationTracker(cfg)
	var cfgErr *UtilizationConfigError
	if !errors.As(err, &cfgErr) || !cfgErr.Config.NextLinePrefetch {
		t.Fatalf("NextLinePrefetch: err = %v, want a *UtilizationConfigError for it", err)
	}
}

func TestUtilizationEmpty(t *testing.T) {
	tr := newTracker(t, Config{Name: "t", LineSize: 64, Sets: 2, Ways: 1, Policy: LRU})
	st := tr.Stats()
	if st.MeanWords() != 0 || st.Evicted != 0 {
		t.Errorf("empty stats = %+v", st)
	}
	var u UtilizationStats
	if u.MeanFraction() != 0 {
		t.Error("zero-value MeanFraction should be 0")
	}
}
