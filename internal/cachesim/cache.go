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
	"encoding/binary"
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

// Per-way state is packed by set so that a set's metadata is a few
// little-endian words. Every per-way column has a per-set stride of Ways
// rounded up to a multiple of 8, and way w of set s lives at index
// s*stride+w in each of them:
//
//   - tags holds each way's line number (its tag above its set index) and
//     ptag the low byte of its tag, so that one XOR against the probed
//     tag's broadcast low byte and an exact zero-byte test compare eight
//     ways at once;
//   - rrpv holds each way's 2-bit RRPV in a byte for the RRIP policies, so
//     that the victim search and the set's aging are word operations;
//     stamp holds each way's 64-bit recency stamp for LRU;
//   - dirty marks the lines to write back.
//
// occ counts the valid ways of each set. A fill always takes the set's
// lowest free way and only Reset frees one, so way w of set s is valid
// exactly when w < occ[s]. A free way, and every pad way past Ways, holds
// zeros in every column.

const (
	laneOnes = 0x0101010101010101 // bit 0 of every byte lane
	laneLow7 = 0x7f7f7f7f7f7f7f7f // bits 0-6 of every byte lane
	laneHigh = 0x8080808080808080 // bit 7 of every byte lane
)

// le64 loads the first eight bytes of b as a word; byte j is lane j.
func le64(b []uint8) uint64 { return binary.LittleEndian.Uint64(b) }

// zeroLanes returns bit 7 of exactly the zero byte lanes of x: adding 0x7f
// to a lane's low seven bits sets its bit 7 unless they are all zero, and
// no lane carries into the next.
func zeroLanes(x uint64) uint64 { return ^(x&laneLow7 + laneLow7 | x | laneLow7) }

// firstLanes returns bit 7 of lanes 0..n-1 for n >= 1 (all eight for n >= 8).
func firstLanes(n int) uint64 { return laneHigh >> (64 - 8*uint(min(n, 8))) }

// Cache is a set-associative cache simulator. Not safe for concurrent use.
type Cache struct {
	cfg      Config
	lineBits uint
	setBits  uint // log2(Sets); tag = line >> setBits
	setMask  uint64
	stride   int    // per-set stride of the way columns: Ways rounded up to a multiple of 8
	tail     uint64 // bit 0 of the lanes of a set's last word that hold real ways

	// Per-way columns, indexed by set*stride+way (see above).
	tags  []uint64
	ptag  []uint8
	rrpv  []uint8  // RRIP policies only
	stamp []uint64 // LRU only
	dirty []bool
	occ   []uint16 // valid ways per set: way w is valid iff w < occ[set]

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
	stride := (cfg.Ways + 7) &^ 7
	nLines := cfg.Sets * stride
	c := &Cache{
		cfg:      cfg,
		lineBits: uint(bits.TrailingZeros(uint(cfg.LineSize))),
		setBits:  uint(bits.TrailingZeros(uint(cfg.Sets))),
		setMask:  uint64(cfg.Sets - 1),
		stride:   stride,
		tail:     laneOnes >> (8 * uint(stride-cfg.Ways)),
		tags:     make([]uint64, nLines),
		ptag:     make([]uint8, nLines),
		dirty:    make([]bool, nLines),
		occ:      make([]uint16, cfg.Sets),
		psel:     pselInit,
	}
	if cfg.Policy == LRU {
		c.stamp = make([]uint64, nLines)
	} else {
		c.rrpv = make([]uint8, nLines)
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// Reset clears contents and statistics.
func (c *Cache) Reset() {
	clear(c.tags)
	clear(c.ptag)
	clear(c.rrpv)
	clear(c.stamp)
	clear(c.dirty)
	clear(c.occ)
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
	hit, _ := c.access(addr, write)
	return hit
}

// access is Access that also returns the column index (set*stride+way) of
// the way that hit or was filled.
func (c *Cache) access(addr uint64, write bool) (bool, int) {
	c.stats.Accesses++
	line := addr >> c.lineBits
	set := line & c.setMask
	if w := c.probe(set, line); w >= 0 {
		i := int(set)*c.stride + w
		c.stats.Hits++
		c.touch(i)
		if write {
			c.dirty[i] = true
		}
		return true, i
	}

	c.stats.Misses++
	if write {
		c.stats.WriteMiss++
	} else {
		c.stats.ReadMiss++
	}
	return false, c.missFill(line, set, write)
}

// probe returns the valid way of set that holds line, or -1. A partial-tag
// match only nominates a way; the line number decides.
func (c *Cache) probe(set, line uint64) int {
	base, occ := int(set)*c.stride, int(c.occ[set])
	p := uint64(uint8(line>>c.setBits)) * laneOnes
	for k := 0; k < occ; k += 8 {
		for m := zeroLanes(le64(c.ptag[base+k:])^p) & firstLanes(occ-k); m != 0; m &= m - 1 {
			if w := k + bits.TrailingZeros64(m)>>3; c.tags[base+w] == line {
				return w
			}
		}
	}
	return -1
}

// missFill performs everything a demand miss does after the probe: DRRIP
// set-dueling vote, victim selection, fill, replacement-metadata insertion
// and the optional next-line prefetch. AccessBatch's kernel performs the
// same operations in the same order over its hoisted state, with evict's
// one-word case inline. It returns the column index the line was filled
// into.
func (c *Cache) missFill(line, set uint64, write bool) int {
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
	i := c.fill(set, line, write)
	switch c.setRole(set) {
	case LRU:
		c.clock++
		c.stamp[i] = c.clock
	case SRRIP:
		c.rrpv[i] = rrpvLong
	case BRRIP:
		c.brripCtr++
		if c.brripCtr%brripEpsilon == 0 {
			c.rrpv[i] = rrpvLong
		} else {
			c.rrpv[i] = rrpvDistant
		}
	}
	if c.cfg.NextLinePrefetch {
		c.prefetch(line + 1)
	}
	return i
}

// fill puts line into the first free way of set, or else into the way
// evict picks, accounting the eviction, and returns the way's column
// index. The replacement metadata is left to the caller.
func (c *Cache) fill(set, line uint64, dirty bool) int {
	base := int(set) * c.stride
	w := int(c.occ[set])
	if w < c.cfg.Ways {
		c.occ[set]++
	} else {
		w = c.evict(base)
		c.stats.Evictions++
		if c.dirty[base+w] {
			c.stats.Writebacks++
		}
	}
	i := base + w
	c.tags[i] = line
	c.ptag[i] = uint8(line >> c.setBits)
	c.dirty[i] = dirty
	return i
}

// evict returns the way to evict from the full set whose columns start at
// base: for LRU the first way with the oldest stamp; for RRIP the first
// way holding the set's highest RRPV, after raising every way's RRPV by
// rrpvMax minus that RRPV. The RRIP step is the textbook loop — evict the
// first way at rrpvMax, else age every way by one and scan again — in one
// pass: raising every RRPV by the same amount makes the first way holding
// the maximum the first to reach rrpvMax. Both halves are word operations
// over the set's RRPV bytes, masked to bit 0 of the lanes of real ways:
// r & r>>1 marks the lanes at 3, r>>1 the lanes at 2 or more, r the odd
// lanes, and the aging is one add per word.
func (c *Cache) evict(base int) int {
	if c.cfg.Policy == LRU {
		stamp := c.stamp[base : base+c.cfg.Ways]
		best := 0
		for w := 1; w < len(stamp); w++ {
			if stamp[w] < stamp[best] {
				best = w
			}
		}
		return best
	}
	rrpv, last := c.rrpv[base:base+c.stride], c.stride-8
	var top, high, odd uint64
	for k := 0; k <= last; k += 8 {
		m := uint64(laneOnes)
		if k == last {
			m = c.tail
		}
		r := le64(rrpv[k:])
		h := r >> 1 & m
		top |= r & h
		high |= h
		odd |= r & m
	}
	d := uint64(rrpvMax) // every way at 0
	if top != 0 {
		d = 0
	} else if high != 0 {
		d = 1
	} else if odd != 0 {
		d = 2
	}
	victim := 0
	for k := last; k >= 0; k -= 8 {
		m := uint64(laneOnes)
		if k == last {
			m = c.tail
		}
		r := le64(rrpv[k:]) + d*m
		binary.LittleEndian.PutUint64(rrpv[k:], r)
		if v := r & (r >> 1) & m; v != 0 {
			victim = k + bits.TrailingZeros64(v)>>3
		}
	}
	return victim
}

// prefetch fills the given line if absent, inserting it cold so it is the
// first candidate for eviction until a demand access promotes it.
func (c *Cache) prefetch(line uint64) {
	set := line & c.setMask
	if c.probe(set, line) >= 0 {
		return // already resident
	}
	i := c.fill(set, line, false)
	// Cold insertion: distant RRPV / oldest LRU stamp.
	if c.cfg.Policy == LRU {
		c.stamp[i] = 0
	} else {
		c.rrpv[i] = rrpvDistant
	}
	c.stats.Prefetches++
}

// touch updates replacement metadata on a hit.
func (c *Cache) touch(i int) {
	if c.cfg.Policy == LRU {
		c.clock++
		c.stamp[i] = c.clock
	} else { // all RRIP variants promote to RRPV 0 on hit
		c.rrpv[i] = 0
	}
}

// Contains reports whether addr's line is currently cached, without
// updating any state. Used by tests and by the ECS scanner.
func (c *Cache) Contains(addr uint64) bool {
	line := addr >> c.lineBits
	return c.probe(line&c.setMask, line) >= 0
}

// Snapshot calls fn with the base address of every valid line. It performs
// no state updates; the paper's ECS metric periodically scans cache
// contents this way (§VI-F).
func (c *Cache) Snapshot(fn func(lineAddr uint64)) {
	for set, n := range c.occ {
		base := set * c.stride
		for _, line := range c.tags[base : base+int(n)] {
			fn(line << c.lineBits)
		}
	}
}

// ValidLines returns the number of currently valid lines.
func (c *Cache) ValidLines() int {
	n := 0
	for _, o := range c.occ {
		n += int(o)
	}
	return n
}
