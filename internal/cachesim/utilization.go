package cachesim

import "math/bits"

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
// line-utilization statistics. It shadows the cache's content: drive it
// with the same access stream via Observe.
type UtilizationTracker struct {
	c     *Cache
	words int
	// touched[line index] = bitmask of words touched since fill.
	touched []uint64
	// filled mirrors validity as seen by the tracker.
	filled []uint64 // line tag per slot, to detect replacement
	valid  []bool
	stats  UtilizationStats
}

// NewUtilizationTracker builds a tracker for the given cache geometry.
// The cache must use a line size of at most 512 bytes (64 words).
func NewUtilizationTracker(cfg Config) *UtilizationTracker {
	words := cfg.LineSize / 8
	if words < 1 {
		words = 1
	}
	if words > 64 {
		panic("cachesim: utilization tracking supports at most 512-byte lines")
	}
	n := cfg.Sets * cfg.Ways
	return &UtilizationTracker{
		c:       New(cfg),
		words:   words,
		touched: make([]uint64, n),
		filled:  make([]uint64, n),
		valid:   make([]bool, n),
		stats:   UtilizationStats{Histogram: make([]uint64, words+1)},
	}
}

// Access drives the shadow cache with one access and updates word masks.
// It returns whether the access hit.
func (t *UtilizationTracker) Access(addr uint64, write bool) bool {
	line := addr >> t.c.lineBits
	word := uint((addr >> 3)) % uint(t.words)
	set := line & t.c.setMask
	base := int(set) * t.c.cfg.Ways

	hit := t.c.Access(addr, write)
	// Locate the slot now holding the line.
	slot := -1
	for w := 0; w < t.c.cfg.Ways; w++ {
		i := base + w
		if t.c.valid[i] && t.c.tags[i] == line>>uint(bits.TrailingZeros(uint(t.c.cfg.Sets))) {
			slot = i
			break
		}
	}
	if slot < 0 {
		return hit // should not happen: the line was just filled
	}
	if !hit {
		// The slot was refilled; account the evicted line's usage.
		if t.valid[slot] {
			t.record(slot)
		}
		t.valid[slot] = true
		t.filled[slot] = line
		t.touched[slot] = 0
	}
	t.touched[slot] |= 1 << word
	return hit
}

func (t *UtilizationTracker) record(slot int) {
	w := bits.OnesCount64(t.touched[slot])
	if w == 0 {
		w = 1
	}
	t.stats.Histogram[w]++
	t.stats.Evicted++
}

// Stats drains the currently resident lines into the histogram and
// returns the totals. The tracker can keep being used afterwards; resident
// lines are only counted once per Stats call boundary semantics, so call
// it at the end of a run.
func (t *UtilizationTracker) Stats() UtilizationStats {
	out := UtilizationStats{Histogram: append([]uint64(nil), t.stats.Histogram...), Evicted: t.stats.Evicted}
	for i, v := range t.valid {
		if v {
			w := bits.OnesCount64(t.touched[i])
			if w == 0 {
				w = 1
			}
			out.Histogram[w]++
			out.Evicted++
		}
	}
	return out
}

// CacheStats exposes the shadow cache's hit/miss counters.
func (t *UtilizationTracker) CacheStats() Stats { return t.c.Stats() }
