package core

import (
	"fmt"
	"testing"

	"graphlocality/internal/cachesim"
	"graphlocality/internal/gen"
	"graphlocality/internal/graph"
	"graphlocality/internal/trace"
)

// The tests in this file check cachesim's SRRIP, BRRIP and DRRIP against
// rripOracle, a deliberately naive model written from Jaleel et al.,
// "High Performance Cache Replacement Using Re-Reference Interval
// Prediction (RRIP)", ISCA 2010. It shares no code with cachesim: no
// packed state, no single-pass aging, no occupancy counters, no batch path.
// Only the plain cachesim.Stats struct is shared, as the type the counters
// are compared in. Its conventions are the constants cachesim documents:
//
//   - 2-bit RRPV; SRRIP inserts at 2, BRRIP at 3 except on every 32nd
//     BRRIP fill (one global counter), which inserts at 2; a hit sets 0;
//   - DRRIP leaders: set%32 == 0 follows SRRIP, set%32 == 1 BRRIP; a miss
//     in an SRRIP leader raises the 10-bit PSEL, a miss in a BRRIP leader
//     lowers it, both saturating; PSEL starts at 512 and the followers use
//     BRRIP while PSEL >= 512;
//   - the victim is the first way at RRPV 3, found by the textbook loop:
//     scan the set, and if no way is at 3, age every way by one and scan
//     again.

// rripEntry is one resident line.
type rripEntry struct {
	line  uint64
	rrpv  int
	dirty bool
}

// rripOracle is a write-allocate, write-back, set-associative RRIP cache.
// A set holds its lines in fill order; a fill into a set that is not full
// appends, so the first free way is always the one taken.
type rripOracle struct {
	lineSize, ways uint64
	policy         cachesim.Policy
	sets           [][]rripEntry
	psel           int
	brripFills     int
	stats          cachesim.Stats

	// Coverage of the corner cases: votes dropped at each PSEL rail, and
	// BRRIP fills that took the long insertion.
	clampedHi, clampedLo, longFills int
}

func newRRIPOracle(lineSize, sets, ways int, policy cachesim.Policy) *rripOracle {
	return &rripOracle{lineSize: uint64(lineSize), ways: uint64(ways), policy: policy,
		sets: make([][]rripEntry, sets), psel: 512}
}

// role returns the policy that fills set s.
func (o *rripOracle) role(s uint64) cachesim.Policy {
	if o.policy != cachesim.DRRIP {
		return o.policy
	}
	switch s % 32 {
	case 0:
		return cachesim.SRRIP
	case 1:
		return cachesim.BRRIP
	}
	if o.psel >= 512 {
		return cachesim.BRRIP
	}
	return cachesim.SRRIP
}

// access simulates one access and reports whether it hit.
func (o *rripOracle) access(addr uint64, write bool) bool {
	o.stats.Accesses++
	line := addr / o.lineSize
	s := line % uint64(len(o.sets))
	set := o.sets[s]
	for i := range set {
		if set[i].line == line {
			o.stats.Hits++
			set[i].rrpv = 0
			set[i].dirty = set[i].dirty || write
			return true
		}
	}
	o.stats.Misses++
	if write {
		o.stats.WriteMiss++
	} else {
		o.stats.ReadMiss++
	}
	if o.policy == cachesim.DRRIP {
		switch s % 32 {
		case 0:
			if o.psel == 1023 {
				o.clampedHi++
			} else {
				o.psel++
			}
		case 1:
			if o.psel == 0 {
				o.clampedLo++
			} else {
				o.psel--
			}
		}
	}
	rrpv := 2
	if o.role(s) == cachesim.BRRIP {
		o.brripFills++
		if o.brripFills%32 == 0 {
			o.longFills++
		} else {
			rrpv = 3
		}
	}
	fill := rripEntry{line: line, rrpv: rrpv, dirty: write}
	if uint64(len(set)) < o.ways {
		o.sets[s] = append(set, fill)
		return false
	}
	for {
		for i := range set {
			if set[i].rrpv == 3 {
				o.stats.Evictions++
				if set[i].dirty {
					o.stats.Writebacks++
				}
				set[i] = fill
				return false
			}
		}
		for i := range set {
			set[i].rrpv++
		}
	}
}

var rripPolicies = []cachesim.Policy{cachesim.SRRIP, cachesim.BRRIP, cachesim.DRRIP}

// TestRRIPOracleMatchesSimulate runs the oracle over the real pull and push
// streams of two tiny graphs on a (policy × sets × ways × line size) grid
// and requires both simulate paths to report the oracle's counters
// exactly. It then checks that the fuzz seeds reach the corners the
// streams may not: both PSEL rails and the long BRRIP insertion.
func TestRRIPOracleMatchesSimulate(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"rmat": gen.SocialNetwork(9, 8, 1),
		"er":   gen.ErdosRenyi(600, 4800, 2),
	}
	var writebacks, longFills int
	for gname, g := range graphs {
		for _, dir := range []trace.Direction{trace.Pull, trace.Push} {
			addrs, writes := oracleStream(g, dir)
			for _, pol := range rripPolicies {
				for _, sets := range []int{1, 32, 64} {
					for _, ways := range []int{1, 4, 8, 11, 16} {
						for _, lineSize := range []int{32, 64} {
							name := fmt.Sprintf("%s/%s/%s/sets=%d/ways=%d/line=%d", gname, dir, pol, sets, ways, lineSize)
							o := newRRIPOracle(lineSize, sets, ways, pol)
							for i, a := range addrs {
								o.access(a, writes[i])
							}
							writebacks += int(o.stats.Writebacks)
							longFills += o.longFills
							cfg := cachesim.Config{LineSize: lineSize, Sets: sets, Ways: ways, Policy: pol}
							opts := SimOptions{Direction: dir, Cache: cfg}
							if got := SimulateSpMVReference(g, opts).Cache; got != o.stats {
								t.Errorf("%s: reference %+v, oracle %+v", name, got, o.stats)
							}
							if got := SimulateSpMV(g, opts).Cache; got != o.stats {
								t.Errorf("%s: fast path %+v, oracle %+v", name, got, o.stats)
							}
						}
					}
				}
			}
		}
	}
	if writebacks == 0 || longFills == 0 {
		t.Errorf("grid wrote back %d dirty lines and took %d long BRRIP fills; the streams do not contend the caches",
			writebacks, longFills)
	}

	var hi, lo, long int
	for _, s := range rripRailSeeds() {
		cfg := rripFuzzConfig(s.geo, s.waysSel)
		addrs, writes := rripFuzzStream(cfg, s.data)
		o := newRRIPOracle(cfg.LineSize, cfg.Sets, cfg.Ways, cfg.Policy)
		for i, a := range addrs {
			o.access(a, writes[i])
		}
		hi, lo, long = hi+o.clampedHi, lo+o.clampedLo, long+o.longFills
	}
	if hi == 0 || lo == 0 || long == 0 {
		t.Errorf("fuzz seeds clamp PSEL %d times at 1023 and %d times at 0 and take %d long BRRIP fills; each must be > 0",
			hi, lo, long)
	}
}

// rripFuzzConfig decodes FuzzRRIPVsOracle's geometry selectors: geo picks
// 1..128 sets (so the leader sets 32 and 33 are reachable) and a 32- or
// 64-byte line; waysSel picks 1..16 ways and SRRIP, BRRIP or DRRIP.
func rripFuzzConfig(geo, waysSel uint8) cachesim.Config {
	return cachesim.Config{
		LineSize: 32 << (geo >> 3 & 1),
		Sets:     1 << (geo & 0x7),
		Ways:     1 + int(waysSel&0xf),
		Policy:   rripPolicies[int(waysSel>>4)%len(rripPolicies)],
	}
}

// rripFuzzStream decodes the access stream, 3 bytes per access: a 16-bit
// line index, then a byte whose low bit is the write flag and whose upper
// bits give the byte offset within the line.
func rripFuzzStream(cfg cachesim.Config, data []byte) (addrs []uint64, writes []bool) {
	for i := 0; i+3 <= len(data); i += 3 {
		line := uint64(data[i])<<8 | uint64(data[i+1])
		addrs = append(addrs, line*uint64(cfg.LineSize)+uint64(data[i+2]>>1)%uint64(cfg.LineSize))
		writes = append(writes, data[i+2]&1 == 1)
	}
	return addrs, writes
}

type rripSeed struct {
	geo, waysSel uint8
	data         []byte
}

// rripRailSeeds builds streams that reach the corners of DRRIP and BRRIP.
//
// The first pins PSEL at each rail and then checks that it counts back from
// exactly the rail. In 4 sets of two ways, a scan of new lines misses on
// every access: 600 misses in set 1 (the BRRIP leader) pin PSEL at 0, and
// 511 in set 0 (the SRRIP leader) then bring it to 511, one short of
// switching the followers to BRRIP. Follower set 2 tells the two apart: P
// filled at RRPV 2 while PSEL sat at 0, then Q, then R evicts P if Q was
// also filled by SRRIP (RRPV 2) but evicts Q if it was filled by BRRIP
// (RRPV 3), and a last access to P shows which. The same is then done from
// the top rail: 1100 misses in set 0 pin PSEL at 1023, 511 in set 1 bring
// it to 512, and follower set 3 shows whether it still fills by BRRIP.
//
// The second is a one-set, four-way BRRIP stream that scans 80 new lines,
// each followed by a re-read of an older one, so it passes the 32nd and
// the 64th BRRIP fill and the re-reads tell a long insertion from a
// distant one.
//
// The third swings PSEL between the rails many times over 32 sets of four
// ways: phases of 3000 accesses send 60 % of the traffic to one leader set,
// alternating between the BRRIP and the SRRIP leader, and the rest to
// random followers.
func rripRailSeeds() []rripSeed {
	acc := func(data []byte, line uint64, write bool) []byte {
		b := byte(0)
		if write {
			b = 1
		}
		return append(data, byte(line>>8), byte(line), b)
	}
	const geo4Sets, twoWayDRRIP = 0x2, 0x21
	var rails []byte
	scan := func(set, from, n uint64) {
		for k := from; k < from+n; k++ {
			rails = acc(rails, set+4*k, k%3 == 0)
		}
	}
	scan(1, 0, 600)
	rails = acc(rails, 2, false) // P
	scan(0, 1, 511)
	rails = acc(rails, 6, false)  // Q
	rails = acc(rails, 10, false) // R
	rails = acc(rails, 2, false)  // P: a miss
	rails = acc(rails, 3, false)  // P', filled by SRRIP at PSEL 511
	scan(0, 600, 1100)
	scan(1, 600, 511)
	rails = acc(rails, 7, false)  // Q'
	rails = acc(rails, 11, false) // R'
	rails = acc(rails, 3, false)  // P': a hit
	const geo1Set, fourWayBRRIP = 0x0, 0x13
	var brrip []byte
	for k := uint64(0); k < 80; k++ {
		brrip = acc(brrip, 100+k, k%4 == 0)
		brrip = acc(brrip, 100+k/2, false)
	}
	const geo32Sets, fourWayDRRIP = 0x5, 0x23
	var swings []byte
	x := uint64(7)
	for phase := uint64(0); phase < 6; phase++ {
		leader := 1 - phase%2
		for k := 0; k < 3000; k++ {
			x = x*6364136223846793005 + 1442695040888963407
			line := leader + 32*(x>>60)
			if x>>32%5 >= 3 {
				line = 2 + x>>40%30 + 32*(x>>56%12)
			}
			swings = acc(swings, line, x>>20%4 == 0)
		}
	}
	return []rripSeed{{geo4Sets, twoWayDRRIP, rails}, {geo1Set, fourWayBRRIP, brrip}, {geo32Sets, fourWayDRRIP, swings}}
}

// FuzzRRIPVsOracle feeds arbitrary access streams to the oracle and to
// cachesim's RRIP policies through both the scalar Access and the
// AccessBatch path, and requires the same per-access hits and the same
// final counters.
func FuzzRRIPVsOracle(f *testing.F) {
	f.Add(uint8(0x00), uint8(0x00), []byte{0, 0, 0})
	// One set, two ways, SRRIP: A B A C. C evicts B (A was promoted).
	f.Add(uint8(0x00), uint8(0x01), []byte{0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 2, 0, 0, 1, 0})
	f.Add(uint8(0x0d), uint8(0x2a), []byte{
		0, 0x20, 0, 0, 0x21, 1, 0, 0x40, 0, 0xff, 0xff, 1, 0, 0x20, 0, 0, 0x61, 0,
	})
	f.Add(uint8(0x07), uint8(0x2f), []byte{
		1, 2, 0x7e, 3, 4, 1, 5, 6, 0, 7, 8, 0x3f, 1, 2, 0, 9, 10, 0,
	})
	for _, s := range rripRailSeeds() {
		f.Add(s.geo, s.waysSel, s.data)
	}

	f.Fuzz(func(t *testing.T, geo, waysSel uint8, data []byte) {
		cfg := rripFuzzConfig(geo, waysSel)
		addrs, writes := rripFuzzStream(cfg, data)
		if len(addrs) == 0 {
			return
		}
		o := newRRIPOracle(cfg.LineSize, cfg.Sets, cfg.Ways, cfg.Policy)
		scalar, batched := cachesim.New(cfg), cachesim.New(cfg)
		hits := make([]bool, len(addrs))
		batched.AccessBatch(addrs, writes, hits)
		for i, a := range addrs {
			want := o.access(a, writes[i])
			if got := scalar.Access(a, writes[i]); got != want {
				t.Fatalf("cfg=%+v: access %d (addr %#x, write %v): Access hit=%v, oracle hit=%v",
					cfg, i, a, writes[i], got, want)
			}
			if hits[i] != want {
				t.Fatalf("cfg=%+v: access %d (addr %#x, write %v): AccessBatch hit=%v, oracle hit=%v",
					cfg, i, a, writes[i], hits[i], want)
			}
		}
		if got := scalar.Stats(); got != o.stats {
			t.Fatalf("cfg=%+v: Access counters %+v, oracle %+v", cfg, got, o.stats)
		}
		if got := batched.Stats(); got != o.stats {
			t.Fatalf("cfg=%+v: AccessBatch counters %+v, oracle %+v", cfg, got, o.stats)
		}
	})
}
