package cachesim

import (
	"fmt"
	"math/bits"
)

// Line-utilization tracking: how many of a cache line's 8-byte words are
// actually touched between fill and eviction. This quantifies *spatial*
// locality directly — orderings with good type-I/III locality (§IV-D) use
// most of every fetched line, while scattered orderings fetch 64 bytes to
// use 8. It complements ECS: ECS asks how much of the cache holds useful
// data, utilization asks how much of each fetched line was useful.

// UtilizationStats summarizes word usage of evicted lines.
type UtilizationStats struct {
	// Histogram[w] counts evicted lines that had exactly w words touched
	// (index 0 is unused; lines are touched at least once when filled).
	Histogram []uint64
	// Evicted is the number of lines accounted.
	Evicted uint64
}

// MeanWords returns the average number of touched words per line.
func (u UtilizationStats) MeanWords() float64 {
	var sum, n uint64
	for w, c := range u.Histogram {
		sum += uint64(w) * c
		n += c
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// MeanFraction returns the mean fraction of each line's words touched.
func (u UtilizationStats) MeanFraction() float64 {
	if len(u.Histogram) <= 1 {
		return 0
	}
	return u.MeanWords() / float64(len(u.Histogram)-1)
}

// UtilizationTracker observes a Cache's accesses and evictions to build
// line-utilization statistics. It drives a shadow cache with the access
// stream it is given through Access, which reports the way each access hit
// or filled.
type UtilizationTracker struct {
	c     *Cache
	words int
	// touched[way number] = bitmask of words touched since the line's fill;
	// a way holds a tracked line exactly when its mask is non-zero, since a
	// fill always touches one word.
	touched []uint64
	stats   UtilizationStats
}

// UtilizationConfigError reports a cache configuration the utilization
// tracker cannot account correctly.
type UtilizationConfigError struct {
	Config Config
	Reason string
}

func (e *UtilizationConfigError) Error() string {
	return fmt.Sprintf("cachesim: utilization tracking of %q: %s", e.Config.Name, e.Reason)
}

// NewUtilizationTracker builds a tracker for the given cache geometry. It
// rejects, with a *UtilizationConfigError, lines over 512 bytes (a line's
// word mask is one uint64) and NextLinePrefetch: the tracker sees only
// demand accesses, so a prefetch fill would evict a tracked line without
// its usage being recorded.
func NewUtilizationTracker(cfg Config) (*UtilizationTracker, error) {
	words := cfg.LineSize / 8
	if words < 1 {
		words = 1
	}
	if words > 64 {
		return nil, &UtilizationConfigError{cfg, "lines over 512 bytes are not supported"}
	}
	if cfg.NextLinePrefetch {
		return nil, &UtilizationConfigError{cfg, "NextLinePrefetch fills are not seen by the tracker"}
	}
	c := New(cfg)
	return &UtilizationTracker{
		c:       c,
		words:   words,
		touched: make([]uint64, 8*len(c.recs)),
		stats:   UtilizationStats{Histogram: make([]uint64, words+1)},
	}, nil
}

// Access drives the shadow cache with one access and updates word masks.
// It returns whether the access hit.
func (t *UtilizationTracker) Access(addr uint64, write bool) bool {
	hit, slot := t.c.access(addr, write)
	if !hit {
		// The slot was refilled; account the evicted line's usage.
		if t.touched[slot] != 0 {
			t.record(slot)
		}
		t.touched[slot] = 0
	}
	t.touched[slot] |= 1 << (uint(addr>>3) % uint(t.words))
	return hit
}

func (t *UtilizationTracker) record(slot int) {
	t.stats.Histogram[bits.OnesCount64(t.touched[slot])]++
	t.stats.Evicted++
}

// Stats drains the currently resident lines into the histogram and
// returns the totals. The tracker can keep being used afterwards; resident
// lines are only counted once per Stats call boundary semantics, so call
// it at the end of a run.
func (t *UtilizationTracker) Stats() UtilizationStats {
	out := UtilizationStats{Histogram: append([]uint64(nil), t.stats.Histogram...), Evicted: t.stats.Evicted}
	for _, m := range t.touched {
		if m != 0 {
			out.Histogram[bits.OnesCount64(m)]++
			out.Evicted++
		}
	}
	return out
}
