package cachesim

import (
	"encoding/binary"
	"math/bits"
)

// Batched access fast paths. A trace-driven simulation spends most of its
// time calling Cache.Access once per memory instruction; for a full SpMV
// grid that is hundreds of millions of calls whose cost is dominated by Go
// call overhead and per-access bookkeeping rather than by the replacement
// policy itself. AccessBatch amortizes that overhead over a block of
// accesses: geometry, policy state (PSEL, BRRIP counter, LRU clock) and the
// per-way columns are hoisted out of the loop, the probe and the miss path
// run inline, and the counters are folded into Stats once per block.
//
// The kernel is written for caches of at most 8 ways, whose per-set stride
// is 8: a set's partial tags are then one little-endian word and so are its
// RRPVs. The probe is one XOR of that word against the probed tag's
// broadcast low byte, masked to the set's occupied lanes, and the RRIP
// victim is one aging add on the RRPV word plus a trailing-zeros pick.
// ScaledL3 (8-way DRRIP) and ScaledTLB (4-way LRU), the geometries every
// simulation uses, both take it. A wider cache runs the scalar access once
// per element of the block.
//
// Bit-exactness contract: for any access sequence and any geometry, any
// way of cutting the sequence into batches produces exactly the per-access
// hit/miss results and final cache state (tags, partial tags, dirty bits,
// RRPVs or LRU stamps, per-set occupancy, DRRIP PSEL, BRRIP counter, LRU
// clock, statistics) that the same sequence produces through scalar Access
// calls. Above 8 ways that holds by construction. Up to 8 ways the kernel
// is the one-word case of probe and evict, and the rest of its miss path
// mirrors missFill and fill operation for operation. The differential
// suite in core, batch_test.go and FuzzBatchedVsScalar (which samples 1..16
// ways, across the 8/9 boundary) hold the two paths together, and the LRU
// and RRIP oracles in core check both against models that share no code
// with them.

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
	setMask, ways, tail := c.setMask, uint16(c.cfg.Ways), c.tail
	policy := c.cfg.Policy
	isLRU := policy == LRU
	isDRRIP := policy == DRRIP
	nextLine := c.cfg.NextLinePrefetch
	tags, ptag, dirty, occ := c.tags, c.ptag, c.dirty, c.occ
	rrpv, stamp := c.rrpv, c.stamp
	// Policy state as loop locals, written back after the block. prefetch()
	// and evict(), the only methods called, read none of them, so the
	// copies cannot go stale mid-block.
	psel, brripCtr, clock := c.psel, c.brripCtr, c.clock
	var readMiss, writeMiss, evictions, writebacks uint64

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
		j := -1 // column index of the way holding the line
		if line == memoLine0 {
			if tags[memoWay0] == line {
				j = memoWay0
			}
		} else if line == memoLine1 {
			if tags[memoWay1] == line {
				j = memoWay1
			}
		}
		if j < 0 {
			set := line & setMask
			base := int(set) * 8
			n := occ[set]
			// Probe (probe()): the partial tags of the occupied ways
			// nominate, the line numbers decide.
			p := uint64(uint8(line>>setBits)) * laneOnes
			for m := zeroLanes(le64(ptag[base:base+8])^p) & (laneHigh >> (64 - 8*uint(n))); m != 0; m &= m - 1 {
				if w := base + bits.TrailingZeros64(m)>>3; tags[w] == line {
					j = w
					break
				}
			}
			if j < 0 {
				// Inlined miss path — the same operations missFill performs,
				// in the same order, over the hoisted state.
				write := writes != nil && writes[i]
				if write {
					writeMiss++
				} else {
					readMiss++
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
				// Fill (fill()): the first free way, else evict's choice;
				// the RRIP victim is evict's one-word case, inline.
				j = base + int(n)
				if n < ways {
					occ[set]++
				} else {
					if isLRU {
						j = base + c.evict(base)
					} else {
						r := le64(rrpv[base : base+8])
						h := r >> 1 & tail
						d := uint64(rrpvMax) // every way at 0
						if r&h != 0 {
							d = 0
						} else if h != 0 {
							d = 1
						} else if r&tail != 0 {
							d = 2
						}
						r += d * tail
						binary.LittleEndian.PutUint64(rrpv[base:base+8], r)
						j = base + bits.TrailingZeros64(r&(r>>1)&tail)>>3
					}
					evictions++
					if dirty[j] {
						writebacks++
					}
				}
				tags[j] = line
				ptag[j] = uint8(line >> setBits)
				dirty[j] = write
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
					clock++
					stamp[j] = clock
				case SRRIP:
					rrpv[j] = rrpvLong
				default: // BRRIP
					brripCtr++
					if brripCtr%brripEpsilon == 0 {
						rrpv[j] = rrpvLong
					} else {
						rrpv[j] = rrpvDistant
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
			clock++
			stamp[j] = clock
		} else { // all RRIP variants promote to RRPV 0 on hit
			rrpv[j] = 0
		}
		if writes != nil && writes[i] {
			dirty[j] = true
		}
		if hits != nil {
			hits[i] = true
		}
	}

	// Write back the hoisted policy state and fold the counters once per
	// block. prefetch fills account their own stats as they go.
	c.psel, c.brripCtr, c.clock = psel, brripCtr, clock
	c.stats.Accesses += uint64(len(addrs))
	c.stats.Hits += uint64(nHits)
	c.stats.Misses += uint64(len(addrs) - nHits)
	c.stats.ReadMiss += readMiss
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
