package cachesim

import "math/bits"

// Batched access fast paths. A trace-driven simulation spends most of its
// time calling Cache.Access once per memory instruction; for a full SpMV
// grid that is hundreds of millions of calls whose cost is dominated by Go
// call overhead and per-access bookkeeping rather than by the replacement
// policy itself. AccessBatch amortizes that overhead over a block of
// accesses: the geometry and the LRU clock are hoisted out of the loop,
// the probe and the miss path run inline, and hits are counted once per
// block. The miss path counts into Stats and steers PSEL and the BRRIP
// counter in place, not in locals: the loop already carries more values
// than there are registers, and every local more is spilled and reloaded
// on the hot path (measured slower).
//
// There are two kernels of the same shape, one per policy family:
// batchRRIP for SRRIP, BRRIP and DRRIP (ScaledL3 is 8-way DRRIP) and
// batchLRU for LRU (ScaledTLB is 4-way LRU). Both are written for caches
// of at most 8 ways, whose sets are one record each (see setRec): set s is
// recs[s], and the way numbers the loops carry address record k>>3, lane
// k&7, so a loop holds one slice where a column layout needs one per
// field. A set's partial tags are one little-endian word and so are its
// RRPVs; pad lanes past Ways hold zeros and the aging add masks them out.
// The probe is one XOR of the partial-tag word against the probed tag's
// broadcast low byte; a nominated lane hits when it holds the line and
// lies below the record's occupancy. The RRIP victim is one aging add on
// the RRPV word plus a trailing-zeros pick; the LRU victim is the first
// way with the oldest stamp. Where its outcome depends on the simulated
// data, neither kernel branches after the probe: the aging distance, the
// LRU victim, the writeback count, the DRRIP vote and role, the BRRIP
// insertion RRPV and whether a hit dirties its line are arithmetic.
//
// Both kernels keep a two-slot line memo of the last two distinct lines
// they touched and the ways holding them. The SpMV stream is highly
// line-repetitive in an alternating pattern — 16 sequential edge reads per
// line interleaved with random vertex-data reads, and offsets pairs on a
// shared line — so most accesses hit the memo and skip the probe with one
// compare. The memo's invariant: an entry names a way that holds its line;
// refilling that way clears it. Only a demand fill changes a way's line
// inside a kernel, and each clears the entry naming its way, so a memo hit
// needs no check of the way's tag. An empty entry holds line ^0, which no
// address maps to once lines are at least 2 bytes long.
//
// The other geometries run the scalar access once per element of the
// block: caches of more than 8 ways, caches of 1-byte lines (where line ^0
// is a real line) and caches with next-line prefetch (whose fills would
// change a second way per miss; only replay's -prefetch sets it).
//
// Bit-exactness contract: for any access sequence and any geometry, any
// way of cutting the sequence into batches, and any interleaving of
// batches with scalar Access calls on the same cache, produces exactly the
// per-access hit/miss results and final cache state (every record's tags,
// partial tags, dirty bits, RRPVs or LRU stamps and occupancy, DRRIP PSEL,
// BRRIP counter, LRU clock, statistics) that the same sequence produces
// through scalar Access calls alone. On the scalar path that holds by
// construction. Each kernel is the one-record case of probe and evict for
// its policy, and the rest of its miss path computes what missFill and
// fill compute. The differential suite in core, batch_test.go and
// FuzzBatchedVsScalar (which samples 1..16 ways, across the 8/9 boundary,
// line sizes 1, 64 and 4096, and nil writes) hold the paths together, and
// the LRU and RRIP oracles in core check them against models that share
// no code with them.

// AccessBatch simulates len(addrs) accesses in order. writes marks which
// accesses are stores; nil means all loads. hits, when non-nil, must have
// len(addrs) elements and receives the per-access hit results. It returns
// the number of hits in the batch.
func (c *Cache) AccessBatch(addrs []uint64, writes, hits []bool) int {
	switch {
	case c.stride != 8 || c.lineBits == 0 || c.cfg.NextLinePrefetch:
		nHits := 0
		for i, addr := range addrs {
			hit, _ := c.access(addr, writes != nil && writes[i])
			if hit {
				nHits++
			}
			if hits != nil {
				hits[i] = hit
			}
		}
		return nHits
	case c.cfg.Policy == LRU:
		return c.batchLRU(addrs, writes, hits)
	default:
		return c.batchRRIP(addrs, writes, hits)
	}
}

// noLine marks an empty memo entry. Lines of at least 2 bytes number at
// most 2^63-1, so no address maps to it.
const noLine = ^uint64(0)

// batchRRIP is AccessBatch for an RRIP cache of at most 8 ways, lines of
// at least 2 bytes and no prefetch.
func (c *Cache) batchRRIP(addrs []uint64, writes, hits []bool) int {
	// Shift counts are masked so the shifts compile without a range check.
	lineShift, setBits := c.lineBits&63, c.setBits&63
	setMask, ways, tail := c.setMask, uint32(c.cfg.Ways), c.tail
	// The policy as 0/1 words for the branch-free insertion: drrip turns
	// on set dueling, brrip a fixed BRRIP insertion.
	drrip, brrip := b2u(c.cfg.Policy == DRRIP), b2u(c.cfg.Policy == BRRIP)
	recs := c.recs
	st := &c.stats // the miss path counts in place (see above)
	misses0 := st.Misses
	memoLine0, memoWay0 := noLine, 0
	memoLine1, memoWay1 := noLine, 0

	for i, addr := range addrs {
		line := addr >> lineShift
		k := memoWay0 // way number of the way holding the line
		if line == memoLine0 {
			goto hit
		}
		if line == memoLine1 {
			k = memoWay1
			memoLine0, memoWay0, memoLine1, memoWay1 = line, k, memoLine0, memoWay0
			goto hit
		}
		{ // a block, so that goto hit jumps over no declaration
			set := line & setMask
			r := &recs[set]
			n := r.occ
			// Probe (probe()): the partial tags nominate, the line
			// numbers and the occupancy decide. A free way or pad lane
			// holds partial tag 0 and line 0, so only line 0 can match
			// one, and lane < n turns it down.
			p := uint64(uint8(line>>setBits)) * laneOnes
			for m := zeroLanes(le64(&r.ptag) ^ p); m != 0; m &= m - 1 {
				if lane := bits.TrailingZeros64(m) >> 3; r.tags[lane] == line && lane < int(n) {
					k = int(set)*8 + lane
					memoLine0, memoWay0, memoLine1, memoWay1 = line, k, memoLine0, memoWay0
					goto hit
				}
			}
			// Inlined miss path: what missFill computes.
			write := writes != nil && writes[i]
			st.Misses++
			st.WriteMiss += b2u(write)
			st.ReadMiss += 1 - b2u(write)
			// Fill (fill()): the first free way, else evict's one-record
			// RRIP case, inline.
			lane := int(n)
			if n < ways {
				r.occ++
			} else {
				rr := le64(&r.rrpv)
				h := rr >> 1 & tail
				rr += agingDistance(rr&h, h, rr&tail) * tail
				putLE64(&r.rrpv, rr)
				lane = bits.TrailingZeros64(rr&(rr>>1)&tail) >> 3
				st.Evictions++
				st.Writebacks += b2u(r.dirty[lane&7])
			}
			lane &= 7
			r.tags[lane] = line
			r.ptag[lane] = uint8(line >> setBits)
			r.dirty[lane] = write
			// Insertion (missFill()/setRole()). Leader-set misses steer
			// PSEL within [0, pselMax] (leaderPeriod is a power of two,
			// so &(leaderPeriod-1) matches missFill's %). Whether a
			// random set leads is unpredictable, so the vote, the role
			// and the BRRIP insertion RRPV are 0/1 arithmetic, not
			// branches.
			lead := set & (leaderPeriod - 1)
			isS := drrip & ((lead - 1) >> 63)       // 1 iff an SRRIP leader
			isB := drrip & (((lead ^ 1) - 1) >> 63) // 1 iff a BRRIP leader
			canUp := uint64(c.psel-pselMax) >> 63   // 1 iff psel < pselMax
			canDn := uint64(-c.psel) >> 63          // 1 iff psel > 0
			c.psel += int(isS&canUp) - int(isB&canDn)
			high := uint64(pselInit-1-c.psel) >> 63 // 1 iff psel >= pselInit
			// BRRIP inserts for the BRRIP policy, for BRRIP leaders and
			// for followers while SRRIP leaders miss more; it inserts
			// long once every brripEpsilon times.
			useB := brrip | isB | drrip&^isS&high
			c.brripCtr += useB
			r.rrpv[lane] = uint8(rrpvLong + useB&nonZero(c.brripCtr%brripEpsilon))
			if hits != nil {
				hits[i] = false
			}
			// The line now fills way k: an entry that named k is gone.
			// The line was in neither entry, so it goes in front.
			k = int(set)*8 + lane
			if k == memoWay0 {
				memoLine0 = noLine
			}
			memoLine0, memoWay0, memoLine1, memoWay1 = line, k, memoLine0, memoWay0
			continue
		}
	hit: // all RRIP variants promote to RRPV 0 on hit
		recs[k>>3].rrpv[k&7] = 0
		if writes != nil { // whether a hit stores is data: no branch
			d := &recs[k>>3].dirty[k&7]
			*d = b2u(*d)|b2u(writes[i]) != 0
		}
		if hits != nil {
			hits[i] = true
		}
	}

	return c.fold(len(addrs), misses0)
}

// batchLRU is AccessBatch for an LRU cache of at most 8 ways, lines of at
// least 2 bytes and no prefetch. It is batchRRIP with LRU's victim and
// stamps in place of the RRPV arithmetic.
func (c *Cache) batchLRU(addrs []uint64, writes, hits []bool) int {
	lineShift, setBits := c.lineBits&63, c.setBits&63
	setMask, ways := c.setMask, uint32(c.cfg.Ways)
	recs := c.recs
	clock := c.clock
	st := &c.stats
	misses0 := st.Misses
	memoLine0, memoWay0 := noLine, 0
	memoLine1, memoWay1 := noLine, 0

	for i, addr := range addrs {
		line := addr >> lineShift
		k := memoWay0
		if line == memoLine0 {
			goto hit
		}
		if line == memoLine1 {
			k = memoWay1
			memoLine0, memoWay0, memoLine1, memoWay1 = line, k, memoLine0, memoWay0
			goto hit
		}
		{
			set := line & setMask
			r := &recs[set]
			n := r.occ
			p := uint64(uint8(line>>setBits)) * laneOnes
			for m := zeroLanes(le64(&r.ptag) ^ p); m != 0; m &= m - 1 {
				if lane := bits.TrailingZeros64(m) >> 3; r.tags[lane] == line && lane < int(n) {
					k = int(set)*8 + lane
					memoLine0, memoWay0, memoLine1, memoWay1 = line, k, memoLine0, memoWay0
					goto hit
				}
			}
			write := writes != nil && writes[i]
			st.Misses++
			st.WriteMiss += b2u(write)
			st.ReadMiss += 1 - b2u(write)
			// Fill (fill()): the first free way, else evict's one-record
			// LRU case, inline: the first way with the oldest stamp.
			lane := int(n)
			if n < ways {
				r.occ++
			} else {
				// Which way is oldest is data, not a pattern a branch
				// predictor learns, so the scan selects without a branch.
				lane = 0
				oldest := r.stamp[0]
				for w := 1; w < int(ways); w++ {
					s := r.stamp[w&7]
					lane += (w - lane) & -int(b2u(s < oldest))
					oldest = min(oldest, s)
				}
				st.Evictions++
				st.Writebacks += b2u(r.dirty[lane&7])
			}
			lane &= 7
			r.tags[lane] = line
			r.ptag[lane] = uint8(line >> setBits)
			r.dirty[lane] = write
			clock++
			r.stamp[lane] = clock
			if hits != nil {
				hits[i] = false
			}
			k = int(set)*8 + lane
			if k == memoWay0 {
				memoLine0 = noLine
			}
			memoLine0, memoWay0, memoLine1, memoWay1 = line, k, memoLine0, memoWay0
			continue
		}
	hit:
		clock++
		recs[k>>3].stamp[k&7] = clock
		if writes != nil { // whether a hit stores is data: no branch
			d := &recs[k>>3].dirty[k&7]
			*d = b2u(*d)|b2u(writes[i]) != 0
		}
		if hits != nil {
			hits[i] = true
		}
	}

	c.clock = clock
	return c.fold(len(addrs), misses0)
}

// fold adds a kernel's block of n accesses to the statistics, whose miss
// count read misses0 before the block, and returns its hit count.
func (c *Cache) fold(n int, misses0 uint64) int {
	misses := int(c.stats.Misses - misses0)
	c.stats.Accesses += uint64(n)
	c.stats.Hits += uint64(n - misses)
	return n - misses
}

// AccessBatch looks up a block of address translations in order; hits,
// when non-nil, receives the per-access results. It returns the number of
// TLB hits.
func (t *TLB) AccessBatch(addrs []uint64, hits []bool) int {
	return t.c.AccessBatch(addrs, nil, hits)
}
