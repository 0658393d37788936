// Package cachesim implements the trace-based cache simulator the paper
// builds its locality analysis on (§V-B): a set-associative cache in the
// style of SimpleScalar's sim-cache, equipped with an accurate
// implementation of the SRRIP and BRRIP replacement policies and their
// set-dueling combination DRRIP (Jaleel et al., ISCA'10), which the paper
// uses to model the shared L3 of a Skylake-SP NUMA node.
//
// The simulator is functional (timing-less): each access returns hit/miss
// and updates replacement state. Cache contents can be snapshotted at any
// point, which the Effective Cache Size metric (§VI-F) relies on.
package cachesim

import (
	"fmt"
	"math/bits"

	"graphlocality/internal/obs"
)

// Policy selects the replacement policy of a Cache.
type Policy int

const (
	// LRU evicts the least-recently-used way.
	LRU Policy = iota
	// SRRIP is Static Re-Reference Interval Prediction with 2-bit RRPV:
	// insertion at RRPV=2 ("long"), promotion to 0 on hit.
	SRRIP
	// BRRIP is Bimodal RRIP: insertion at RRPV=3 ("distant") except with
	// probability 1/32 at RRPV=2, making the cache scan- and
	// thrash-resistant.
	BRRIP
	// DRRIP duels SRRIP and BRRIP on dedicated leader sets and steers the
	// follower sets with a PSEL counter. This is the policy the paper's
	// simulator uses for the L3.
	DRRIP
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case LRU:
		return "LRU"
	case SRRIP:
		return "SRRIP"
	case BRRIP:
		return "BRRIP"
	case DRRIP:
		return "DRRIP"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

const (
	rrpvMax      = 3  // 2-bit RRPV
	rrpvLong     = 2  // SRRIP insertion
	rrpvDistant  = 3  // BRRIP insertion
	brripEpsilon = 32 // BRRIP inserts long once every brripEpsilon misses
	pselMax      = 1023
	pselInit     = 512
	// Leader-set spacing for DRRIP set dueling: within each run of
	// leaderPeriod sets, set 0 is an SRRIP leader and set 1 a BRRIP
	// leader.
	leaderPeriod = 32
)

// invalidTag marks never-filled ways in the tags array, letting the batched
// probe match on the tag alone. A real tag is addr >> (lineBits+setBits),
// so it can only equal invalidTag when lineBits+setBits == 0 — AccessBatch
// falls back to the valid-bit probe for that degenerate geometry.
const invalidTag = ^uint64(0)

// Config describes cache geometry and policy.
type Config struct {
	Name     string // for reporting ("L3", "DTLB", ...)
	LineSize int    // bytes per line; power of two
	Sets     int    // number of sets; power of two
	Ways     int    // associativity
	Policy   Policy
	// NextLinePrefetch enables a simple sequential prefetcher: every
	// demand miss also fills the next line (tagged at distant RRPV /
	// LRU-cold so prefetches do not displace demand data aggressively).
	// This models the §II-D observation that the topology streams of
	// CSR/CSC traversals are served by hardware prefetchers.
	NextLinePrefetch bool
}

// SizeBytes returns the total capacity in bytes.
func (c Config) SizeBytes() int { return c.LineSize * c.Sets * c.Ways }

// Validate checks the geometry.
func (c Config) Validate() error {
	if c.LineSize <= 0 || bits.OnesCount(uint(c.LineSize)) != 1 {
		return fmt.Errorf("cachesim: LineSize %d must be a positive power of two", c.LineSize)
	}
	if c.Sets <= 0 || bits.OnesCount(uint(c.Sets)) != 1 {
		return fmt.Errorf("cachesim: Sets %d must be a positive power of two", c.Sets)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("cachesim: Ways %d must be positive", c.Ways)
	}
	return nil
}

// Stats accumulates access counts.
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	ReadMiss   uint64
	WriteMiss  uint64
	Evictions  uint64
	Writebacks uint64 // evictions of dirty lines
	Prefetches uint64 // lines filled by the next-line prefetcher
}

// MissRate returns Misses/Accesses in [0,1], or 0 when no accesses.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Record folds the counters into rec under prefix (e.g. "sim.l3"). The
// simulator's hot path keeps its plain per-instance counters; stages fold
// the totals atomically once per simulation, which keeps manifest totals
// deterministic under the parallel scheduler.
func (s Stats) Record(rec obs.Recorder, prefix string) {
	rec.Counter(prefix + ".accesses").Add(s.Accesses)
	rec.Counter(prefix + ".hits").Add(s.Hits)
	rec.Counter(prefix + ".misses").Add(s.Misses)
	rec.Counter(prefix + ".evictions").Add(s.Evictions)
	rec.Counter(prefix + ".writebacks").Add(s.Writebacks)
	rec.Counter(prefix + ".prefetches").Add(s.Prefetches)
}

// Cache is a set-associative cache simulator. Not safe for concurrent use.
type Cache struct {
	cfg      Config
	lineBits uint
	setBits  uint // log2(Sets); tag = line >> setBits
	setMask  uint64

	// Per-line state, indexed by set*ways+way.
	tags  []uint64
	valid []bool
	dirty []bool
	meta  []uint64 // LRU timestamp or RRPV, per policy

	// occ counts the valid ways per set. Once a set is full (the steady
	// state after warmup) the victim search can skip its scan for an
	// invalid way; the fill paths keep the count in lockstep with valid.
	occ []uint16

	clock    uint64 // LRU timestamp source
	psel     int    // DRRIP policy selector
	brripCtr uint64 // BRRIP bimodal counter

	stats Stats
}

// New constructs a Cache. It panics on invalid geometry (configuration is
// programmer-controlled).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nLines := cfg.Sets * cfg.Ways
	c := &Cache{
		cfg:      cfg,
		lineBits: uint(bits.TrailingZeros(uint(cfg.LineSize))),
		setBits:  uint(bits.TrailingZeros(uint(cfg.Sets))),
		setMask:  uint64(cfg.Sets - 1),
		tags:     make([]uint64, nLines),
		valid:    make([]bool, nLines),
		dirty:    make([]bool, nLines),
		meta:     make([]uint64, nLines),
		occ:      make([]uint16, cfg.Sets),
		psel:     pselInit,
	}
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// Reset clears contents and statistics.
func (c *Cache) Reset() {
	for i := range c.valid {
		c.valid[i] = false
		c.dirty[i] = false
		c.meta[i] = 0
		c.tags[i] = invalidTag
	}
	for i := range c.occ {
		c.occ[i] = 0
	}
	c.clock = 0
	c.psel = pselInit
	c.brripCtr = 0
	c.stats = Stats{}
}

// set dueling roles for DRRIP.
func (c *Cache) setRole(set uint64) Policy {
	if c.cfg.Policy != DRRIP {
		return c.cfg.Policy
	}
	switch set % leaderPeriod {
	case 0:
		return SRRIP
	case 1:
		return BRRIP
	default:
		if c.psel >= pselInit {
			return BRRIP // SRRIP leaders missed more
		}
		return SRRIP
	}
}

// Access simulates one memory access of any size that fits in a line.
// It returns true on hit. write marks the line dirty.
func (c *Cache) Access(addr uint64, write bool) bool {
	c.stats.Accesses++
	line := addr >> c.lineBits
	set := line & c.setMask
	tag := line >> c.setBits
	base := int(set) * c.cfg.Ways

	// Probe.
	for w := 0; w < c.cfg.Ways; w++ {
		i := base + w
		if c.valid[i] && c.tags[i] == tag {
			c.stats.Hits++
			c.touch(i)
			if write {
				c.dirty[i] = true
			}
			return true
		}
	}

	// Miss.
	c.stats.Misses++
	if write {
		c.stats.WriteMiss++
	} else {
		c.stats.ReadMiss++
	}
	c.missFill(line, set, tag, base, write)
	return false
}

// missFill performs everything a demand miss does after the probe: DRRIP
// set-dueling vote, victim selection, fill, replacement-metadata insertion
// and the optional next-line prefetch. It is shared verbatim between the
// scalar Access path and AccessBatch, so the two paths cannot drift.
// It returns the way index the line was filled into (used by AccessBatch's
// line memo).
func (c *Cache) missFill(line, set, tag uint64, base int, write bool) int {
	if c.cfg.Policy == DRRIP {
		// Leader-set misses steer PSEL: an SRRIP-leader miss votes
		// against SRRIP (increment), a BRRIP-leader miss votes against
		// BRRIP (decrement).
		switch set % leaderPeriod {
		case 0:
			if c.psel < pselMax {
				c.psel++
			}
		case 1:
			if c.psel > 0 {
				c.psel--
			}
		}
	}
	victim := c.victim(base, set)
	if c.valid[victim] {
		c.stats.Evictions++
		if c.dirty[victim] {
			c.stats.Writebacks++
		}
	} else {
		c.occ[set]++
	}
	c.valid[victim] = true
	c.tags[victim] = tag
	c.dirty[victim] = write
	c.insert(victim, set)
	if c.cfg.NextLinePrefetch {
		c.prefetch(line + 1)
	}
	return victim
}

// prefetch fills the given line if absent, inserting it cold so it is the
// first candidate for eviction until a demand access promotes it.
func (c *Cache) prefetch(line uint64) {
	set := line & c.setMask
	tag := line >> c.setBits
	base := int(set) * c.cfg.Ways
	for w := 0; w < c.cfg.Ways; w++ {
		if c.valid[base+w] && c.tags[base+w] == tag {
			return // already resident
		}
	}
	victim := c.victim(base, set)
	if c.valid[victim] {
		c.stats.Evictions++
		if c.dirty[victim] {
			c.stats.Writebacks++
		}
	} else {
		c.occ[set]++
	}
	c.valid[victim] = true
	c.tags[victim] = tag
	c.dirty[victim] = false
	// Cold insertion: distant RRPV / oldest LRU stamp.
	if c.cfg.Policy == LRU {
		c.meta[victim] = 0
	} else {
		c.meta[victim] = rrpvDistant
	}
	c.stats.Prefetches++
}

// touch updates replacement metadata on a hit.
func (c *Cache) touch(i int) {
	switch c.cfg.Policy {
	case LRU:
		c.clock++
		c.meta[i] = c.clock
	default: // all RRIP variants promote to RRPV 0 on hit
		c.meta[i] = 0
	}
}

// insert sets replacement metadata for a newly filled line.
func (c *Cache) insert(i int, set uint64) {
	switch c.setRole(set) {
	case LRU:
		c.clock++
		c.meta[i] = c.clock
	case SRRIP:
		c.meta[i] = rrpvLong
	case BRRIP:
		c.brripCtr++
		if c.brripCtr%brripEpsilon == 0 {
			c.meta[i] = rrpvLong
		} else {
			c.meta[i] = rrpvDistant
		}
	}
}

// victim picks the way to fill in the set starting at base.
func (c *Cache) victim(base int, set uint64) int {
	ways := c.cfg.Ways
	// Invalid way first; skipped entirely when the set is known full.
	if int(c.occ[set]) < ways {
		valid := c.valid[base : base+ways]
		for w, v := range valid {
			if !v {
				return base + w
			}
		}
	}
	meta := c.meta[base : base+ways]
	if c.cfg.Policy == LRU {
		best := 0
		for w := 1; w < ways; w++ {
			if meta[w] < meta[best] {
				best = w
			}
		}
		return base + best
	}
	// RRIP: evict the first way at RRPV == rrpvMax, aging all ways until
	// one appears. Done in one scan: raising every RRPV by the same amount
	// makes the first way holding the maximum the first to reach rrpvMax,
	// so that way is the victim — identical to the textbook scan-and-age
	// loop, without the repeated passes.
	best, max := 0, meta[0]
	for w := 1; w < ways; w++ {
		if meta[w] > max {
			best, max = w, meta[w]
		}
	}
	if d := rrpvMax - max; d != 0 {
		for w := range meta {
			meta[w] += d
		}
	}
	return base + best
}

// Contains reports whether addr's line is currently cached, without
// updating any state. Used by tests and by the ECS scanner.
func (c *Cache) Contains(addr uint64) bool {
	line := addr >> c.lineBits
	set := line & c.setMask
	tag := line >> c.setBits
	base := int(set) * c.cfg.Ways
	for w := 0; w < c.cfg.Ways; w++ {
		if c.valid[base+w] && c.tags[base+w] == tag {
			return true
		}
	}
	return false
}

// Snapshot calls fn with the base address of every valid line. It performs
// no state updates; the paper's ECS metric periodically scans cache
// contents this way (§VI-F).
func (c *Cache) Snapshot(fn func(lineAddr uint64)) {
	setBits := c.setBits
	for set := 0; set < c.cfg.Sets; set++ {
		base := set * c.cfg.Ways
		for w := 0; w < c.cfg.Ways; w++ {
			if c.valid[base+w] {
				line := c.tags[base+w]<<setBits | uint64(set)
				fn(line << c.lineBits)
			}
		}
	}
}

// ValidLines returns the number of currently valid lines.
func (c *Cache) ValidLines() int {
	n := 0
	for _, v := range c.valid {
		if v {
			n++
		}
	}
	return n
}
