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

// maxLines caps a cache's line count Sets×Ways at 2^24 (16 Mi lines, a
// 1 GiB cache of 64-byte lines, about 46 times the paper's 22 MiB L3).
// A cache keeps about 20 bytes of state per line, so the cap bounds a
// cache at about 320 MiB, and it keeps every occupancy count far inside
// its uint32.
const maxLines = 1 << 24

// Validate checks the geometry: LineSize and Sets positive powers of two,
// Ways positive, and at most 2^24 lines (Sets×Ways) in all.
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
	if c.Ways > maxLines/c.Sets {
		return fmt.Errorf("cachesim: %d sets x %d ways is more than the %d lines a cache may hold", c.Sets, c.Ways, maxLines)
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

// Record folds the counters into rec under prefix (e.g. "sim.l3"); a nil
// rec records nothing. The simulator's hot path keeps its plain
// per-instance counters; stages fold the totals atomically once per
// simulation, which keeps manifest totals deterministic under the
// parallel scheduler.
func (s Stats) Record(rec *obs.Registry, prefix string) {
	rec.Counter(prefix + ".accesses").Add(s.Accesses)
	rec.Counter(prefix + ".hits").Add(s.Hits)
	rec.Counter(prefix + ".misses").Add(s.Misses)
	rec.Counter(prefix + ".evictions").Add(s.Evictions)
	rec.Counter(prefix + ".writebacks").Add(s.Writebacks)
	rec.Counter(prefix + ".prefetches").Add(s.Prefetches)
}

// A cache's state is one slice of set records of eight ways each. A set of
// at most 8 ways is one record; a wider set spans stride/8 consecutive
// records, stride being Ways rounded up to a multiple of 8. Way w of set s
// is way number k = s*stride+w, which lives in lane k&7 of record k>>3:
//
//   - tags holds each way's line number (its tag above its set index) and
//     ptag the low byte of its tag, so that one XOR against the probed
//     tag's broadcast low byte and an exact zero-byte test compare a
//     record's eight ways at once;
//   - rrpv holds each way's 2-bit RRPV in a byte for the RRIP policies, so
//     that the victim search and the set's aging are word operations;
//     stamp holds each way's 64-bit recency stamp for LRU;
//   - dirty marks the lines to write back;
//   - occ counts the set's valid ways. Only a set's first record uses it;
//     it is zero in the others.
//
// A fill always takes the set's lowest free way and only Reset frees one,
// so way w of set s is valid exactly when w < occ. A free way, and every
// pad lane past Ways in a set's last record, holds zeros in every field.
type setRec struct {
	ptag  [8]uint8
	rrpv  [8]uint8 // RRIP policies only
	dirty [8]bool
	occ   uint32 // valid ways of the set, in its first record; Validate's cap keeps it from wrapping
	tags  [8]uint64
	stamp [8]uint64 // LRU only
}

const (
	laneOnes = 0x0101010101010101 // bit 0 of every byte lane
	laneLow7 = 0x7f7f7f7f7f7f7f7f // bits 0-6 of every byte lane
)

// le64 loads eight byte lanes as a word; byte j is lane j.
func le64(b *[8]uint8) uint64 { return binary.LittleEndian.Uint64(b[:]) }

// putLE64 stores a word into eight byte lanes; lane j is byte j.
func putLE64(b *[8]uint8, x uint64) { binary.LittleEndian.PutUint64(b[:], x) }

// zeroLanes returns bit 7 of exactly the zero byte lanes of x: adding 0x7f
// to a lane's low seven bits sets its bit 7 unless they are all zero, and
// no lane carries into the next.
func zeroLanes(x uint64) uint64 { return ^(x&laneLow7 + laneLow7 | x | laneLow7) }

// nonZero returns 1 if x != 0 and 0 otherwise, without a branch.
func nonZero(x uint64) uint64 { return (x | -x) >> 63 }

// b2u returns 1 for true and 0 for false.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// agingDistance returns how far evict raises every RRPV of a full set:
// rrpvMax minus the set's highest RRPV, given bit 0 of the set's lanes at
// 3 (top), at 2 or more (high) and at an odd RRPV (odd). It has no branch:
// which RRPV a victim set tops out at is data, not a pattern a branch
// predictor learns.
func agingDistance(top, high, odd uint64) uint64 {
	hi := nonZero(high)
	// With a lane at 2 or more the highest RRPV is 2 plus whether one is
	// at 3; otherwise it is whether one is at 1.
	return rrpvMax - 2*hi - nonZero(odd^(top^odd)&-hi)
}

// Cache is a set-associative cache simulator. Not safe for concurrent use.
type Cache struct {
	cfg      Config
	lineBits uint
	setBits  uint // log2(Sets); tag = line >> setBits
	setMask  uint64
	stride   int    // way numbers per set: Ways rounded up to a multiple of 8
	tail     uint64 // bit 0 of the lanes of a set's last record that hold real ways

	recs []setRec // Sets*stride/8 records; way k is lane k&7 of recs[k>>3]

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
	return &Cache{
		cfg:      cfg,
		lineBits: uint(bits.TrailingZeros(uint(cfg.LineSize))),
		setBits:  uint(bits.TrailingZeros(uint(cfg.Sets))),
		setMask:  uint64(cfg.Sets - 1),
		stride:   stride,
		tail:     laneOnes >> (8 * uint(stride-cfg.Ways)),
		recs:     make([]setRec, cfg.Sets*stride/8),
		psel:     pselInit,
	}
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// Reset clears contents and statistics.
func (c *Cache) Reset() {
	clear(c.recs)
	c.clock = 0
	c.psel = pselInit
	c.brripCtr = 0
	c.stats = Stats{}
}

// setRecs returns the records of the set whose first way number is base.
func (c *Cache) setRecs(base int) []setRec { return c.recs[base>>3 : (base+c.stride)>>3] }

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

// access is Access that also returns the way number (set*stride+way) of
// the way that hit or was filled.
func (c *Cache) access(addr uint64, write bool) (bool, int) {
	c.stats.Accesses++
	line := addr >> c.lineBits
	set := line & c.setMask
	if k := c.probe(set, line); k >= 0 {
		c.stats.Hits++
		c.touch(k)
		if write {
			c.recs[k>>3].dirty[k&7] = true
		}
		return true, k
	}

	c.stats.Misses++
	if write {
		c.stats.WriteMiss++
	} else {
		c.stats.ReadMiss++
	}
	return false, c.missFill(line, set, write)
}

// probe returns the way number of the valid way of set that holds line, or
// -1. A partial-tag match only nominates a way; the line number and the
// occupancy decide. A free way or pad lane holds partial tag 0 and line 0,
// so only line 0 can match one, and w < occ turns it down.
func (c *Cache) probe(set, line uint64) int {
	base := int(set) * c.stride
	recs := c.setRecs(base)
	occ := int(recs[0].occ)
	p := uint64(uint8(line>>c.setBits)) * laneOnes
	for i := 0; 8*i < occ; i++ {
		r := &recs[i]
		for m := zeroLanes(le64(&r.ptag) ^ p); m != 0; m &= m - 1 {
			if w := 8*i + bits.TrailingZeros64(m)>>3; r.tags[w&7] == line && w < occ {
				return base + w
			}
		}
	}
	return -1
}

// missFill performs everything a demand miss does after the probe: DRRIP
// set-dueling vote, victim selection, fill, replacement-metadata insertion
// and the optional next-line prefetch. AccessBatch's kernels perform the
// same operations without the prefetch, with evict's one-record case
// inline and the vote, the victim and the insertion RRPV computed without
// branches. It returns the way number the line was filled into.
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
	k := c.fill(set, line, write)
	r, lane := &c.recs[k>>3], k&7
	switch c.setRole(set) {
	case LRU:
		c.clock++
		r.stamp[lane] = c.clock
	case SRRIP:
		r.rrpv[lane] = rrpvLong
	case BRRIP:
		c.brripCtr++
		if c.brripCtr%brripEpsilon == 0 {
			r.rrpv[lane] = rrpvLong
		} else {
			r.rrpv[lane] = rrpvDistant
		}
	}
	if c.cfg.NextLinePrefetch {
		c.prefetch(line + 1)
	}
	return k
}

// fill puts line into the first free way of set, or else into the way
// evict picks, accounting the eviction, and returns the way number. The
// replacement metadata is left to the caller.
func (c *Cache) fill(set, line uint64, dirty bool) int {
	base := int(set) * c.stride
	head := &c.recs[base>>3]
	w := int(head.occ)
	if w < c.cfg.Ways {
		head.occ++
	} else {
		w = c.evict(base)
		c.stats.Evictions++
		c.stats.Writebacks += b2u(c.recs[(base+w)>>3].dirty[w&7])
	}
	k := base + w
	r, lane := &c.recs[k>>3], k&7
	r.tags[lane] = line
	r.ptag[lane] = uint8(line >> c.setBits)
	r.dirty[lane] = dirty
	return k
}

// evict returns the way to evict from the full set whose first way number
// is base: for LRU the first way with the oldest stamp; for RRIP the first
// way holding the set's highest RRPV, after raising every way's RRPV by
// rrpvMax minus that RRPV. The RRIP step is the textbook loop — evict the
// first way at rrpvMax, else age every way by one and scan again — in one
// pass: raising every RRPV by the same amount makes the first way holding
// the maximum the first to reach rrpvMax. Both halves are word operations
// over each record's RRPV bytes, masked to bit 0 of the lanes of real
// ways: r & r>>1 marks the lanes at 3, r>>1 the lanes at 2 or more, r the
// odd lanes, and the aging is one add per record.
func (c *Cache) evict(base int) int {
	recs := c.setRecs(base)
	if c.cfg.Policy == LRU {
		best := 0
		for w := 1; w < c.cfg.Ways; w++ {
			if recs[w>>3].stamp[w&7] < recs[best>>3].stamp[best&7] {
				best = w
			}
		}
		return best
	}
	last := len(recs) - 1
	var top, high, odd uint64
	for i := range recs {
		m := uint64(laneOnes)
		if i == last {
			m = c.tail
		}
		r := le64(&recs[i].rrpv)
		h := r >> 1 & m
		top |= r & h
		high |= h
		odd |= r & m
	}
	d := agingDistance(top, high, odd)
	victim := 0
	for i := last; i >= 0; i-- {
		m := uint64(laneOnes)
		if i == last {
			m = c.tail
		}
		r := le64(&recs[i].rrpv) + d*m
		putLE64(&recs[i].rrpv, r)
		if v := r & (r >> 1) & m; v != 0 {
			victim = 8*i + bits.TrailingZeros64(v)>>3
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
	k := c.fill(set, line, false)
	// Cold insertion: distant RRPV / oldest LRU stamp.
	if c.cfg.Policy == LRU {
		c.recs[k>>3].stamp[k&7] = 0
	} else {
		c.recs[k>>3].rrpv[k&7] = rrpvDistant
	}
	c.stats.Prefetches++
}

// touch updates replacement metadata of way k on a hit.
func (c *Cache) touch(k int) {
	if c.cfg.Policy == LRU {
		c.clock++
		c.recs[k>>3].stamp[k&7] = c.clock
	} else { // all RRIP variants promote to RRPV 0 on hit
		c.recs[k>>3].rrpv[k&7] = 0
	}
}

// Snapshot calls fn with the base address of every valid line. It performs
// no state updates; the paper's ECS metric periodically scans cache
// contents this way (§VI-F).
func (c *Cache) Snapshot(fn func(lineAddr uint64)) {
	for base := 0; base < len(c.recs)*8; base += c.stride {
		for k := base; k < base+int(c.recs[base>>3].occ); k++ {
			fn(c.recs[k>>3].tags[k&7] << c.lineBits)
		}
	}
}
