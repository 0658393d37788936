package cachesim

import "math/bits"

// Batched access fast paths. A trace-driven simulation spends most of its
// time calling Cache.Access once per memory instruction; for a full SpMV
// grid that is hundreds of millions of calls whose cost is dominated by Go
// call overhead and per-access bookkeeping rather than by the replacement
// policy itself. AccessBatch amortizes that overhead over a block of
// accesses: geometry and policy state (PSEL, BRRIP counter, LRU clock) are
// hoisted out of the loop, the probe and the miss path run inline, and the
// counters are folded into Stats once per block.
//
// The kernel is written for caches of at most 8 ways, whose sets are one
// record each (see setRec): set s is recs[s], and the way numbers the loop
// carries address record k>>3, lane k&7, so the loop holds one slice where
// a column layout needs one per field. A set's partial tags are one
// little-endian word and so are its RRPVs; pad lanes past Ways hold zeros
// and the aging add masks them out. The probe is one XOR of the
// partial-tag word against the probed tag's broadcast low byte; a
// nominated lane hits when it holds the line and lies below the record's
// occupancy. The RRIP victim is one aging add on the RRPV word plus a
// trailing-zeros pick. Where its outcome depends on the simulated data,
// the miss path has no branch: the aging distance, the writeback count,
// the DRRIP vote and role and the BRRIP insertion RRPV are arithmetic. ScaledL3 (8-way
// DRRIP) and ScaledTLB (4-way LRU), the geometries every simulation uses,
// both take the kernel. A wider cache runs the scalar access once per
// element of the block.
//
// Bit-exactness contract: for any access sequence and any geometry, any
// way of cutting the sequence into batches, and any interleaving of
// batches with scalar Access calls on the same cache, produces exactly the
// per-access hit/miss results and final cache state (every record's tags,
// partial tags, dirty bits, RRPVs or LRU stamps and occupancy, DRRIP PSEL,
// BRRIP counter, LRU clock, statistics) that the same sequence produces
// through scalar Access calls alone. Above 8 ways that holds by
// construction. Up to 8 ways the kernel is the one-record case of probe
// and evict, and the rest of its miss path computes what missFill and fill
// compute. The differential suite in core, batch_test.go and
// FuzzBatchedVsScalar (which samples 1..16 ways, across the 8/9 boundary)
// hold the two paths together, and the LRU and RRIP oracles in core check
// both against models that share no code with them.

// AccessBatch simulates len(addrs) accesses in order. writes marks which
// accesses are stores; nil means all loads. hits, when non-nil, must have
// len(addrs) elements and receives the per-access hit results. It returns
// the number of hits in the batch.
func (c *Cache) AccessBatch(addrs []uint64, writes, hits []bool) int {
	nHits := 0
	if c.stride != 8 {
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
	}

	// Shift counts are masked so the shifts compile without a range check.
	lineShift, setBits := c.lineBits&63, c.setBits&63
	setMask, ways, tail := c.setMask, uint32(c.cfg.Ways), c.tail
	isLRU := c.cfg.Policy == LRU
	nextLine := c.cfg.NextLinePrefetch
	// The policy as 0/1 words for the branch-free insertion: drrip turns
	// on set dueling, brrip a fixed BRRIP insertion.
	drrip, brrip := b2u(c.cfg.Policy == DRRIP), b2u(c.cfg.Policy == BRRIP)
	recs := c.recs
	// Policy state as loop locals, written back after the block. prefetch()
	// and evict(), the only methods called, read none of them, so the
	// copies cannot go stale mid-block.
	psel, brripCtr, clock := c.psel, c.brripCtr, c.clock
	var misses, writeMiss, evictions, writebacks uint64

	// Two-slot MRU line memo. The SpMV stream is highly line-repetitive in
	// an alternating pattern — 16 sequential edge reads per line interleaved
	// with random vertex-data reads, and offsets pairs on a shared line — so
	// remembering the last two distinct (line, way) residencies lets most
	// accesses skip the probe with a single compare. An entry names a way of
	// the line's own set, and ways change lines but never empty mid-block,
	// so comparing the way's line number alone rejects a stale entry. The
	// initial entries name line ^0 and way 0 of its set, which matches only
	// once it really holds line ^0: a free way's line number is 0.
	noLine, noWay := ^uint64(0), int(setMask)*8
	memoLine0, memoWay0 := noLine, noWay
	memoLine1, memoWay1 := noLine, noWay

	for i, addr := range addrs {
		line := addr >> lineShift
		k := memoWay0 // way number of the way holding the line
		if line == memoLine0 && recs[k>>3].tags[k&7] == line {
			goto hit
		}
		k = memoWay1
		if line == memoLine1 && recs[k>>3].tags[k&7] == line {
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
					goto hit
				}
			}
			// Inlined miss path: what missFill computes, over the
			// hoisted state.
			misses++
			write := writes != nil && writes[i]
			writeMiss += b2u(write)
			// Fill (fill()): the first free way, else evict's choice;
			// the RRIP victim is evict's one-record case, inline.
			lane := int(n)
			if n < ways {
				r.occ++
			} else {
				if isLRU {
					lane = c.evict(int(set) * 8)
				} else {
					rr := le64(&r.rrpv)
					h := rr >> 1 & tail
					rr += agingDistance(rr&h, h, rr&tail) * tail
					putLE64(&r.rrpv, rr)
					lane = bits.TrailingZeros64(rr&(rr>>1)&tail) >> 3
				}
				evictions++
				writebacks += b2u(r.dirty[lane&7])
			}
			lane &= 7
			r.tags[lane] = line
			r.ptag[lane] = uint8(line >> setBits)
			r.dirty[lane] = write
			// Insertion (missFill()/setRole()).
			if isLRU {
				clock++
				r.stamp[lane] = clock
			} else {
				// Leader-set misses steer PSEL within [0, pselMax]
				// (leaderPeriod is a power of two, so &(leaderPeriod-1)
				// matches missFill's %). Whether a random set leads is
				// unpredictable, so the vote, the role and the BRRIP
				// insertion RRPV are 0/1 arithmetic, not branches.
				lead := set & (leaderPeriod - 1)
				isS := drrip & ((lead - 1) >> 63)       // 1 iff an SRRIP leader
				isB := drrip & (((lead ^ 1) - 1) >> 63) // 1 iff a BRRIP leader
				canUp := uint64(psel-pselMax) >> 63     // 1 iff psel < pselMax
				canDn := uint64(-psel) >> 63            // 1 iff psel > 0
				psel += int(isS&canUp) - int(isB&canDn)
				high := uint64(pselInit-1-psel) >> 63 // 1 iff psel >= pselInit
				// BRRIP inserts for the BRRIP policy, for BRRIP leaders
				// and for followers while SRRIP leaders miss more; it
				// inserts long once every brripEpsilon times.
				useB := brrip | isB | drrip&^isS&high
				brripCtr += useB
				r.rrpv[lane] = uint8(rrpvLong + useB&nonZero(brripCtr%brripEpsilon))
			}
			if nextLine {
				c.prefetch(line + 1)
			}
			if hits != nil {
				hits[i] = false
			}
			// The miss path keeps its own copy of the memo update: a tail
			// shared with the hit path measured slower.
			k = int(set)*8 + lane
			if line != memoLine0 {
				memoLine1, memoWay1 = memoLine0, memoWay0
				memoLine0 = line
			}
			memoWay0 = k
			continue
		}
	hit:
		if line != memoLine0 {
			memoLine1, memoWay1 = memoLine0, memoWay0
			memoLine0 = line
		}
		memoWay0 = k
		if isLRU {
			clock++
			recs[k>>3].stamp[k&7] = clock
		} else { // all RRIP variants promote to RRPV 0 on hit
			recs[k>>3].rrpv[k&7] = 0
		}
		if writes != nil && writes[i] {
			recs[k>>3].dirty[k&7] = true
		}
		if hits != nil {
			hits[i] = true
		}
	}

	// Write back the hoisted policy state and fold the counters once per
	// block. prefetch fills account their own stats as they go.
	nHits = len(addrs) - int(misses)
	c.psel, c.brripCtr, c.clock = psel, brripCtr, clock
	c.stats.Accesses += uint64(len(addrs))
	c.stats.Hits += uint64(nHits)
	c.stats.Misses += misses
	c.stats.ReadMiss += misses - writeMiss
	c.stats.WriteMiss += writeMiss
	c.stats.Evictions += evictions
	c.stats.Writebacks += writebacks
	return nHits
}

// AccessBatch looks up a block of address translations in order; hits,
// when non-nil, receives the per-access results. It returns the number of
// TLB hits.
func (t *TLB) AccessBatch(addrs []uint64, hits []bool) int {
	return t.c.AccessBatch(addrs, nil, hits)
}
