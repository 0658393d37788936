package cachesim

// Hierarchy models a multi-level cache (L1 → L2 → L3 → memory) with
// fill-on-miss at every level (non-inclusive, non-exclusive — "NINE", the
// common academic model and close to Skylake-SP's non-inclusive L3). The
// paper simulates the shared L3 only, because SpMV's random accesses blow
// through the private levels; Hierarchy lets that assumption be checked
// rather than assumed.
type Hierarchy struct {
	levels []*Cache
}

// NewHierarchy builds a hierarchy from the innermost level outward.
// At least one level is required.
func NewHierarchy(cfgs ...Config) *Hierarchy {
	if len(cfgs) == 0 {
		panic("cachesim: hierarchy needs at least one level")
	}
	h := &Hierarchy{levels: make([]*Cache, len(cfgs))}
	for i, cfg := range cfgs {
		h.levels[i] = New(cfg)
	}
	return h
}

// Access walks the hierarchy: a hit at level i fills all levels < i (and
// promotes recency at i); a miss everywhere fills every level from
// memory. It returns the 0-based level that hit, or the number of levels
// for a memory access.
func (h *Hierarchy) Access(addr uint64, write bool) int {
	for i, c := range h.levels {
		if c.Access(addr, write) {
			return i
		}
	}
	return len(h.levels)
}

// LevelStats returns the statistics of level i (0 = innermost).
func (h *Hierarchy) LevelStats(i int) Stats { return h.levels[i].Stats() }
