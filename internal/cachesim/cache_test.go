package cachesim

import (
	"testing"
	"testing/quick"
)

func small(policy Policy, sets, ways int) *Cache {
	return New(Config{Name: "t", LineSize: 64, Sets: sets, Ways: ways, Policy: policy})
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{LineSize: 0, Sets: 1, Ways: 1},
		{LineSize: 48, Sets: 1, Ways: 1},
		{LineSize: 64, Sets: 3, Ways: 1},
		{LineSize: 64, Sets: 0, Ways: 1},
		{LineSize: 64, Sets: 4, Ways: 0},
		// More lines than the 2^24 cap, one way past it, and a product
		// that overflows int.
		{LineSize: 64, Sets: 1 << 30, Ways: 64},
		{LineSize: 64, Sets: 1, Ways: 1<<24 + 1},
		{LineSize: 64, Sets: 1 << 21, Ways: 9},
		{LineSize: 64, Sets: 1 << 62, Ways: 4},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v accepted", c)
		}
	}
	for _, good := range []Config{
		{LineSize: 64, Sets: 8, Ways: 4},
		{LineSize: 64, Sets: 1, Ways: 1 << 24},
		{LineSize: 64, Sets: 1 << 21, Ways: 8},
	} {
		if err := good.Validate(); err != nil {
			t.Errorf("valid config %+v rejected: %v", good, err)
		}
	}
	good := Config{LineSize: 64, Sets: 8, Ways: 4}
	if good.SizeBytes() != 64*8*4 {
		t.Errorf("SizeBytes = %d", good.SizeBytes())
	}
}

// TestWideSetOccupancy fills a single 65 536-way LRU set with as many
// distinct lines: the set's occupancy must count all of them, with no
// eviction, and the last line filled must hit. The first 65 535 lines go
// straight to fill, which does not probe, so the test stays linear; the
// last one is a demand miss through Access.
func TestWideSetOccupancy(t *testing.T) {
	const ways = 1 << 16
	c := New(Config{LineSize: 64, Sets: 1, Ways: ways, Policy: LRU})
	for line := uint64(1); line < ways; line++ {
		c.fill(0, line, false)
	}
	if c.Access(0, false) {
		t.Fatal("line 0 hit before it was filled")
	}
	if !c.Access(0, false) {
		t.Fatal("line 0 missed in a set that holds every line filled")
	}
	if n := c.ValidLines(); n != ways {
		t.Fatalf("ValidLines = %d, want %d", n, ways)
	}
	if st := c.Stats(); st.Evictions != 0 {
		t.Fatalf("%d evictions filling %d ways with %d lines", st.Evictions, ways, ways)
	}
	if !c.Contains((ways - 1) << 6) {
		t.Fatalf("line %d is not resident", ways-1)
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with bad config did not panic")
		}
	}()
	New(Config{LineSize: 3, Sets: 1, Ways: 1})
}

func TestColdMissThenHit(t *testing.T) {
	for _, p := range []Policy{LRU, SRRIP, BRRIP, DRRIP} {
		c := small(p, 8, 2)
		if c.Access(0x1000, false) {
			t.Errorf("%v: cold access hit", p)
		}
		if !c.Access(0x1000, false) {
			t.Errorf("%v: second access missed", p)
		}
		if !c.Access(0x1010, false) {
			t.Errorf("%v: same-line access missed", p)
		}
		st := c.Stats()
		if st.Accesses != 3 || st.Hits != 2 || st.Misses != 1 {
			t.Errorf("%v: stats = %+v", p, st)
		}
	}
}

func TestLRUEviction(t *testing.T) {
	// 1 set, 2 ways: three distinct lines mapping to the same set.
	c := small(LRU, 1, 2)
	a, b, d := uint64(0), uint64(64), uint64(128)
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // a is now MRU
	c.Access(d, false) // evicts b (LRU)
	if !c.Contains(a) {
		t.Error("a should still be cached")
	}
	if c.Contains(b) {
		t.Error("b should have been evicted")
	}
	if !c.Contains(d) {
		t.Error("d should be cached")
	}
}

func TestLRUStackProperty(t *testing.T) {
	// Under LRU with the same number of sets, a cache with more ways hits
	// at least as often on any trace (inclusion property).
	f := func(seed uint64) bool {
		rng := newTestRNG(seed)
		trace := make([]uint64, 2000)
		for i := range trace {
			trace[i] = uint64(rng.next()%64) * 64
		}
		var prevHits uint64
		for ways := 1; ways <= 8; ways *= 2 {
			c := small(LRU, 4, ways)
			for _, a := range trace {
				c.Access(a, false)
			}
			h := c.Stats().Hits
			if h < prevHits {
				return false
			}
			prevHits = h
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestWritebackAccounting(t *testing.T) {
	c := small(LRU, 1, 1)
	c.Access(0, true)    // dirty
	c.Access(64, false)  // evicts dirty line -> writeback
	c.Access(128, false) // evicts clean line -> no writeback
	st := c.Stats()
	if st.Writebacks != 1 {
		t.Errorf("Writebacks = %d, want 1", st.Writebacks)
	}
	if st.Evictions != 2 {
		t.Errorf("Evictions = %d, want 2", st.Evictions)
	}
	if st.WriteMiss != 1 || st.ReadMiss != 2 {
		t.Errorf("miss split = %+v", st)
	}
}

func TestBRRIPThrashResistance(t *testing.T) {
	// Cyclic access over a working set slightly larger than capacity:
	// LRU thrashes to ~0 hits; BRRIP retains a fraction of the set.
	const lines = 40 // capacity is 32 lines (16 sets x 2 ways)
	trace := func(c *Cache) uint64 {
		for round := 0; round < 50; round++ {
			for i := 0; i < lines; i++ {
				c.Access(uint64(i)*64, false)
			}
		}
		return c.Stats().Hits
	}
	lru := trace(small(LRU, 16, 2))
	brrip := trace(small(BRRIP, 16, 2))
	if lru >= brrip {
		t.Errorf("BRRIP (%d hits) should beat LRU (%d hits) on a thrashing loop", brrip, lru)
	}
}

func TestSRRIPScanThenReuse(t *testing.T) {
	// A reused line should survive a one-shot scan under SRRIP.
	c := small(SRRIP, 1, 4)
	hot := uint64(0)
	for i := 0; i < 8; i++ {
		c.Access(hot, false) // promote to RRPV 0
	}
	// Scan three distinct lines (fills remaining ways at distant RRPV).
	c.Access(64, false)
	c.Access(128, false)
	c.Access(192, false)
	if !c.Access(hot, false) {
		t.Error("hot line evicted by scan under SRRIP")
	}
}

func TestDRRIPFollowsLeaders(t *testing.T) {
	// DRRIP must behave sanely and its hit count should be within the
	// envelope [min(SRRIP,BRRIP), max(SRRIP,BRRIP)] on a mixed trace --
	// approximately; we only require it not to be catastrophically worse.
	rng := newTestRNG(7)
	trace := make([]uint64, 20000)
	for i := range trace {
		if i%3 == 0 {
			trace[i] = uint64(rng.next()%16) * 64 // hot region
		} else {
			trace[i] = uint64(rng.next()%4096) * 64 // scan region
		}
	}
	run := func(p Policy) float64 {
		c := small(p, 64, 4)
		for _, a := range trace {
			c.Access(a, false)
		}
		return c.Stats().MissRate()
	}
	srrip, brrip, drrip := run(SRRIP), run(BRRIP), run(DRRIP)
	worst := srrip
	if brrip > worst {
		worst = brrip
	}
	if drrip > worst+0.05 {
		t.Errorf("DRRIP miss rate %.3f much worse than both SRRIP %.3f and BRRIP %.3f",
			drrip, srrip, brrip)
	}
}

func TestReset(t *testing.T) {
	c := small(DRRIP, 4, 2)
	for i := 0; i < 100; i++ {
		c.Access(uint64(i)*64, false)
	}
	c.Reset()
	if c.Stats().Accesses != 0 {
		t.Error("stats not cleared")
	}
	if c.ValidLines() != 0 {
		t.Error("contents not cleared")
	}
	if c.Access(0, false) {
		t.Error("hit after reset")
	}
}

func TestSnapshot(t *testing.T) {
	c := small(LRU, 4, 2)
	addrs := []uint64{0, 64, 128, 192} // one line per set
	for _, a := range addrs {
		c.Access(a, false)
	}
	got := map[uint64]bool{}
	c.Snapshot(func(line uint64) { got[line] = true })
	if len(got) != len(addrs) {
		t.Fatalf("snapshot has %d lines, want %d", len(got), len(addrs))
	}
	for _, a := range addrs {
		if !got[a] {
			t.Errorf("snapshot missing line %#x", a)
		}
	}
	if c.ValidLines() != len(addrs) {
		t.Errorf("ValidLines = %d, want %d", c.ValidLines(), len(addrs))
	}
}

func TestSnapshotRoundTripsAddresses(t *testing.T) {
	// Reconstructed line addresses must map back to the same set/tag,
	// i.e. Contains must be true for every snapshotted address.
	f := func(seed uint64) bool {
		rng := newTestRNG(seed)
		c := small(DRRIP, 8, 2)
		for i := 0; i < 500; i++ {
			c.Access(uint64(rng.next())&0xFFFFF, rng.next()%2 == 0)
		}
		ok := true
		c.Snapshot(func(line uint64) {
			if !c.Contains(line) {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: accounting identities hold for any policy and any trace.
func TestStatsIdentityProperty(t *testing.T) {
	f := func(seed uint64, policyRaw uint8) bool {
		p := Policy(policyRaw % 4)
		rng := newTestRNG(seed)
		c := small(p, 8, 2)
		n := 1000
		for i := 0; i < n; i++ {
			c.Access(uint64(rng.next())&0xFFFF, rng.next()%3 == 0)
		}
		st := c.Stats()
		if st.Accesses != uint64(n) || st.Hits+st.Misses != st.Accesses {
			return false
		}
		if st.ReadMiss+st.WriteMiss != st.Misses {
			return false
		}
		if c.ValidLines() > 8*2 {
			return false
		}
		// A miss either fills an empty line or evicts: misses =
		// evictions + currently valid lines.
		return st.Misses == st.Evictions+uint64(c.ValidLines())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestNextLinePrefetchSequentialScan(t *testing.T) {
	// A sequential line-by-line scan misses every line without the
	// prefetcher and roughly half the lines with it (each miss pulls in
	// the next line).
	run := func(prefetch bool) Stats {
		c := New(Config{Name: "t", LineSize: 64, Sets: 64, Ways: 4,
			Policy: LRU, NextLinePrefetch: prefetch})
		for i := uint64(0); i < 10000; i++ {
			c.Access(i*64, false)
		}
		return c.Stats()
	}
	off := run(false)
	on := run(true)
	if off.Misses != 10000 {
		t.Fatalf("cold scan misses = %d, want 10000", off.Misses)
	}
	if on.Misses != 5000 {
		t.Errorf("prefetched scan misses = %d, want 5000", on.Misses)
	}
	if on.Prefetches == 0 {
		t.Error("no prefetches counted")
	}
}

func TestPrefetchDoesNotDuplicateLines(t *testing.T) {
	c := New(Config{Name: "t", LineSize: 64, Sets: 4, Ways: 2,
		Policy: SRRIP, NextLinePrefetch: true})
	// Touch line 0 (prefetches line 1), then line 1: must hit, and line 1
	// must exist exactly once.
	c.Access(0, false)
	if !c.Access(64, false) {
		t.Error("prefetched line missed")
	}
	count := 0
	c.Snapshot(func(addr uint64) {
		if addr == 64 {
			count++
		}
	})
	if count != 1 {
		t.Errorf("line 64 present %d times", count)
	}
}

func TestPrefetchRandomAccessesNeutralish(t *testing.T) {
	// On a random stream the prefetcher must not help much (and must not
	// catastrophically hurt): its cold insertions are evicted first.
	run := func(prefetch bool) float64 {
		c := New(Config{Name: "t", LineSize: 64, Sets: 64, Ways: 4,
			Policy: DRRIP, NextLinePrefetch: prefetch})
		rng := newTestRNG(3)
		for i := 0; i < 100000; i++ {
			c.Access(uint64(rng.next()%65536)*64, false)
		}
		return c.Stats().MissRate()
	}
	off, on := run(false), run(true)
	if on > off*1.15 {
		t.Errorf("prefetcher hurt random stream: %.3f vs %.3f", on, off)
	}
}

func TestMissRate(t *testing.T) {
	var s Stats
	if s.MissRate() != 0 {
		t.Error("MissRate of zero stats should be 0")
	}
	s = Stats{Accesses: 10, Misses: 3}
	if s.MissRate() != 0.3 {
		t.Errorf("MissRate = %v", s.MissRate())
	}
}

func TestPolicyString(t *testing.T) {
	for p, want := range map[Policy]string{LRU: "LRU", SRRIP: "SRRIP", BRRIP: "BRRIP", DRRIP: "DRRIP"} {
		if p.String() != want {
			t.Errorf("String(%d) = %q", int(p), p.String())
		}
	}
	if Policy(99).String() == "" {
		t.Error("unknown policy should still stringify")
	}
}

// newTestRNG gives the package its own tiny deterministic generator so
// tests do not depend on math/rand stream stability.
type testRNG struct{ s uint64 }

func newTestRNG(seed uint64) *testRNG { return &testRNG{s: seed*2654435761 + 1} }

func (r *testRNG) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

// ValidLines returns the number of currently valid lines.
func (c *Cache) ValidLines() int {
	n := 0
	for i := 0; i < len(c.recs); i += c.stride / 8 {
		n += int(c.recs[i].occ)
	}
	return n
}

// Contains reports whether addr's line is currently cached, without
// updating any state. Used by tests and by the ECS scanner.
func (c *Cache) Contains(addr uint64) bool {
	line := addr >> c.lineBits
	return c.probe(line&c.setMask, line) >= 0
}
