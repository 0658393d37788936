package cachesim

import "math/bits"

// Batched access fast paths. A trace-driven simulation spends most of its
// time calling Cache.Access once per memory instruction; for a full SpMV
// grid that is hundreds of millions of calls whose cost is dominated by Go
// call overhead and per-access bookkeeping rather than by the replacement
// policy itself. AccessBatch amortizes that overhead over a block of
// accesses: geometry (line shift, set mask, set shift) and policy state
// (PSEL, BRRIP counter) are hoisted out of the loop, the probe and the miss
// path run inline, and the counters are folded into Stats once per block.
// The per-way columns are read through the Cache rather than hoisted: the
// loop keeps fewer values live, and in measurement that beat holding six
// more slice headers in locals the compiler then spills.
//
// Bit-exactness contract: for any access sequence and any geometry, any
// way of cutting the sequence into batches produces exactly the per-access
// hit/miss results and final cache state (tags, partial tags, dirty bits,
// RRPVs or LRU stamps, per-set occupancy, DRRIP PSEL, BRRIP counter, LRU
// clock, statistics) that the same sequence produces through scalar Access
// calls. Both paths probe the packed set state the same way and take their
// victims from the same evict; the rest of the inlined miss path mirrors
// missFill and fill operation for operation. The differential suite in
// core, batch_test.go and FuzzBatchedVsScalar hold the two paths together,
// and the LRU and RRIP oracles in core check both against models that
// share no code with them.

// AccessBatch simulates len(addrs) accesses in order. writes marks which
// accesses are stores; nil means all loads. hits, when non-nil, must have
// len(addrs) elements and receives the per-access hit results. It returns
// the number of hits in the batch.
func (c *Cache) AccessBatch(addrs []uint64, writes, hits []bool) int {
	// Shift counts are masked so the shifts compile without a range check.
	lineShift, setBits := c.lineBits&63, c.setBits&63
	setMask, stride, ways := c.setMask, c.stride, c.cfg.Ways
	policy := c.cfg.Policy
	isLRU := policy == LRU
	isDRRIP := policy == DRRIP
	nextLine := c.cfg.NextLinePrefetch
	// Policy state as loop locals, written back after the block. prefetch()
	// (the only method called besides evict, on the prefetch-fill path)
	// reads neither, so the copies cannot go stale mid-block.
	psel, brripCtr := c.psel, c.brripCtr

	// Two-slot MRU line memo. The SpMV stream is highly line-repetitive in
	// an alternating pattern — 16 sequential edge reads per line interleaved
	// with random vertex-data reads, and offsets pairs on a shared line — so
	// remembering the last two distinct (line, way) residencies lets most
	// accesses skip the probe with a single compare. An entry names a way of
	// the line's own set, and ways change lines but never empty mid-block,
	// so comparing the way's line number alone rejects a stale entry. The
	// initial entries name line ^0 and way 0 of its set, which matches only
	// once it really holds line ^0: a free way's line number is 0.
	noLine, noWay := ^uint64(0), int(setMask)*stride
	memoLine0, memoWay0 := noLine, noWay
	memoLine1, memoWay1 := noLine, noWay

	nHits := 0
	for i, addr := range addrs {
		line := addr >> lineShift
		j := -1 // column index of the way holding the line
		if line == memoLine0 {
			if c.tags[memoWay0] == line {
				j = memoWay0
			}
		} else if line == memoLine1 {
			if c.tags[memoWay1] == line {
				j = memoWay1
			}
		}
		if j < 0 {
			set := line & setMask
			base := int(set) * stride
			n := int(c.occ[set])
			// Probe (probe()): the partial tags nominate, the line numbers
			// decide.
			p := uint64(uint8(line>>setBits)) * laneOnes
			for k := 0; k < n && j < 0; k += 8 {
				for m := zeroLanes(le64(c.ptag[base+k:])^p) & firstLanes(n-k); m != 0; m &= m - 1 {
					if w := base + k + bits.TrailingZeros64(m)>>3; c.tags[w] == line {
						j = w
						break
					}
				}
			}
			if j < 0 {
				// Inlined miss path — the same operations missFill performs,
				// in the same order, over the hoisted state.
				write := writes != nil && writes[i]
				if write {
					c.stats.WriteMiss++
				} else {
					c.stats.ReadMiss++
				}
				if isDRRIP {
					// Leader-set misses steer PSEL (leaderPeriod is a power
					// of two, so &(leaderPeriod-1) matches missFill's %).
					// Branchless: whether a random set is a leader is
					// unpredictable, so the increment/decrement and their
					// clamps are computed as 0/1 masks instead of branches.
					lead := set & (leaderPeriod - 1)
					isS := int((lead - 1) >> 63)                    // 1 iff lead == 0
					isB := int(((lead ^ 1) - 1) >> 63)              // 1 iff lead == 1
					canUp := int(uint64(int64(psel-pselMax)) >> 63) // 1 iff psel < pselMax
					canDn := int(uint64(int64(-psel)) >> 63)        // 1 iff psel > 0
					psel += isS*canUp - isB*canDn
				}
				// Fill (fill()): the first free way, else evict's choice.
				w := n
				if n < ways {
					c.occ[set]++
				} else {
					w = c.evict(base)
					c.stats.Evictions++
					if c.dirty[base+w] {
						c.stats.Writebacks++
					}
				}
				j = base + w
				c.tags[j] = line
				c.ptag[j] = uint8(line >> setBits)
				c.dirty[j] = write
				// Insertion (missFill()/setRole()).
				role := policy
				if isDRRIP {
					switch set & (leaderPeriod - 1) {
					case 0:
						role = SRRIP
					case 1:
						role = BRRIP
					default:
						if psel >= pselInit {
							role = BRRIP
						} else {
							role = SRRIP
						}
					}
				}
				switch role {
				case LRU:
					c.clock++
					c.stamp[j] = c.clock
				case SRRIP:
					c.rrpv[j] = rrpvLong
				default: // BRRIP
					brripCtr++
					if brripCtr%brripEpsilon == 0 {
						c.rrpv[j] = rrpvLong
					} else {
						c.rrpv[j] = rrpvDistant
					}
				}
				if nextLine {
					c.prefetch(line + 1)
				}
				if hits != nil {
					hits[i] = false
				}
				if line != memoLine0 {
					memoLine1, memoWay1 = memoLine0, memoWay0
					memoLine0 = line
				}
				memoWay0 = j
				continue
			}
		}
		if line != memoLine0 {
			memoLine1, memoWay1 = memoLine0, memoWay0
			memoLine0 = line
		}
		memoWay0 = j
		nHits++
		if isLRU {
			c.clock++
			c.stamp[j] = c.clock
		} else { // all RRIP variants promote to RRPV 0 on hit
			c.rrpv[j] = 0
		}
		if writes != nil && writes[i] {
			c.dirty[j] = true
		}
		if hits != nil {
			hits[i] = true
		}
	}

	// Write back the hoisted policy state and fold the counters once per
	// block. The miss path counts read and write misses, evictions and
	// writebacks as it goes; prefetch fills account their own stats.
	c.psel, c.brripCtr = psel, brripCtr
	c.stats.Accesses += uint64(len(addrs))
	c.stats.Hits += uint64(nHits)
	c.stats.Misses += uint64(len(addrs) - nHits)
	return nHits
}

// AccessBatch looks up a block of address translations in order; hits,
// when non-nil, receives the per-access results. It returns the number of
// TLB hits.
func (t *TLB) AccessBatch(addrs []uint64, hits []bool) int {
	return t.c.AccessBatch(addrs, nil, hits)
}

// AccessBatch walks the hierarchy for a block of accesses. levels, when
// non-nil, must have len(addrs) elements and receives each access's hit
// level (Levels() for a memory access), exactly as scalar Access reports.
//
// The batch is processed level by level with miss compaction: level 0 sees
// the whole block, level 1 only the block's level-0 misses, and so on.
// Because each level's future behaviour depends only on the sequence of
// addresses it observes — and compaction preserves that sequence in order —
// the per-level states and statistics evolve bit-identically to the scalar
// walk that interleaves levels per access.
func (h *Hierarchy) AccessBatch(addrs []uint64, writes []bool, levels []int) {
	n := len(addrs)
	if n == 0 {
		return
	}
	if cap(h.batchHits) < n {
		h.batchHits = make([]bool, n)
		h.missAddrs = make([]uint64, n)
		h.missWrites = make([]bool, n)
		h.missIdx = make([]int, n)
	}

	curAddrs := addrs
	curWrites := writes
	var curIdx []int // nil = identity mapping into the caller's block
	for li, c := range h.levels {
		hits := h.batchHits[:len(curAddrs)]
		c.AccessBatch(curAddrs, curWrites, hits)
		// Compact the misses for the next level. Forward in-place
		// compaction is safe: the write index never passes the read index.
		nm := 0
		for i, hit := range hits {
			orig := i
			if curIdx != nil {
				orig = curIdx[i]
			}
			if hit {
				if levels != nil {
					levels[orig] = li
				}
				continue
			}
			h.missAddrs[nm] = curAddrs[i]
			if curWrites != nil {
				h.missWrites[nm] = curWrites[i]
			}
			h.missIdx[nm] = orig
			nm++
		}
		if nm == 0 {
			return
		}
		curAddrs = h.missAddrs[:nm]
		if curWrites != nil {
			curWrites = h.missWrites[:nm]
		}
		curIdx = h.missIdx[:nm]
	}
	if levels != nil {
		for _, orig := range curIdx {
			levels[orig] = len(h.levels)
		}
	}
}
