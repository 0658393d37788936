package cachesim

import (
	"fmt"
	"math/bits"
	"testing"
)

// FuzzBatchedVsScalar feeds arbitrary access streams through AccessBatch
// and the scalar Access path under a fuzzer-chosen geometry and batch cut,
// and requires bit-identical per-access results and final state. The fuzzer
// owns the address distribution, so it explores corners the differential
// suite's structured streams never reach: pathological set aliasing,
// lines whose tags share their low byte (so the partial-tag probe
// nominates several ways), line 0 (whose number a free way also holds),
// single-way sets (where every fill evicts the line the memo named last),
// batch cuts of every phase relative to the stream, both sides of the
// 8/9-way boundary between AccessBatch's kernels and its per-access
// fallback, 1-byte lines (where line ^0 is real and the kernels step
// aside) and the TLB's call shape of page-sized lines and nil writes.
//
// cfgSel picks geometry and policy (bits 0-1 sets, 2-5 ways, 6-7 policy,
// 8 next-line prefetch, 9-10 line size 64, 1, 4096 or 64 bytes, 11 nil
// writes, 12 lines counted down from the last line of the address space);
// blockSel the batch size; data encodes the stream, 3 bytes per access
// (16-bit line index + write bit), keeping the addresses in a window small
// enough to keep the cache contended.
func FuzzBatchedVsScalar(f *testing.F) {
	f.Add(uint16(0x00), uint8(1), []byte{0, 0, 0})
	f.Add(uint16(0x1b), uint8(3), []byte{
		0, 0, 0, 0, 0, 1, 0, 1, 0, 0xff, 0xff, 1, 0, 0, 0,
	})
	f.Add(uint16(0x4f), uint8(0), []byte{
		1, 2, 0, 3, 4, 1, 5, 6, 0, 7, 8, 1, 1, 2, 0, 9, 10, 0,
	})
	f.Add(uint16(0x57), uint8(255), []byte{
		0x40, 0, 0, 0x40, 1, 0, 0x40, 2, 0, 0x40, 3, 1, 0x40, 0, 0,
	})
	// A fill evicts the line the memo named last, which comes back in
	// the same batch: 1 set x 1 way LRU, then the same with page-sized
	// lines and nil writes, then 1 set x 2 ways BRRIP (lines 1 2 3 4 3).
	f.Add(uint16(0x00), uint8(63), []byte{0, 1, 0, 0, 2, 1, 0, 1, 0})
	f.Add(uint16(0xc00), uint8(63), []byte{0, 1, 0, 0, 2, 0, 0, 1, 0, 0, 2, 0})
	f.Add(uint16(0x84), uint8(63), []byte{0, 1, 0, 0, 2, 0, 0, 3, 0, 0, 4, 1, 0, 3, 0})
	// 1-byte lines at the top of the address space: lines ^0-1 and ^0
	// share a tag in the two sets of a 1-way LRU cache.
	f.Add(uint16(0x1201), uint8(63), []byte{0, 1, 0, 0, 0, 0, 0, 1, 0})

	f.Fuzz(func(t *testing.T, cfgSel uint16, blockSel uint8, data []byte) {
		cfg := Config{
			LineSize:         [4]int{64, 1, 4096, 64}[cfgSel>>9&0x3],
			Sets:             1 << (cfgSel & 0x3),       // 1..8 sets
			Ways:             1 + int(cfgSel>>2&0xf),    // 1..16 ways
			Policy:           Policy(cfgSel >> 6 & 0x3), // LRU..DRRIP
			NextLinePrefetch: cfgSel>>8&1 == 1,
		}
		blockSize := 1 + int(blockSel)%64

		n := len(data) / 3
		if n == 0 {
			return
		}
		lineBits := bits.TrailingZeros(uint(cfg.LineSize))
		nilWrites := cfgSel>>11&1 == 1 // the TLB's call shape
		addrs := make([]uint64, n)
		writes := make([]bool, n)
		for i := 0; i < n; i++ {
			line := uint64(data[3*i])<<8 | uint64(data[3*i+1])
			if cfgSel>>12&1 == 1 {
				line = ^uint64(0)>>lineBits - line
			}
			addrs[i] = line << lineBits
			writes[i] = !nilWrites && data[3*i+2]&1 == 1
		}

		scalar, batched := New(cfg), New(cfg)
		hits := make([]bool, blockSize)
		for lo := 0; lo < n; lo += blockSize {
			hi := lo + blockSize
			if hi > n {
				hi = n
			}
			var w []bool
			if !nilWrites {
				w = writes[lo:hi]
			}
			batched.AccessBatch(addrs[lo:hi], w, hits[:hi-lo])
			for i := lo; i < hi; i++ {
				if want := scalar.Access(addrs[i], writes[i]); hits[i-lo] != want {
					t.Fatalf("cfg=%+v bs=%d: access %d (addr %#x, write %v): batched hit=%v, scalar hit=%v",
						cfg, blockSize, i, addrs[i], writes[i], hits[i-lo], want)
				}
			}
		}
		assertSameState(t, fmt.Sprintf("cfg=%+v bs=%d", cfg, blockSize), scalar, batched)
	})
}
