package cachesim

import (
	"fmt"
	"testing"
)

// FuzzBatchedVsScalar feeds arbitrary access streams through AccessBatch
// and the scalar Access path under a fuzzer-chosen geometry and batch cut,
// and requires bit-identical per-access results and final state. The fuzzer
// owns the address distribution, so it explores corners the differential
// suite's structured streams never reach: pathological set aliasing,
// lines whose tags share their low byte (so the partial-tag probe
// nominates several ways), line 0 (whose number a free way also holds),
// single-way sets, batch cuts of every phase relative to the stream, and
// both sides of the 8/9-way boundary between AccessBatch's one-word kernel
// and its per-access fallback.
//
// cfgSel picks geometry and policy (bits 0-1 sets, 2-5 ways, 6-7 policy,
// 8 next-line prefetch); blockSel the batch size; data encodes the stream,
// 3 bytes per access (16-bit line index + write bit), keeping the addresses
// in a window small enough to keep the cache contended.
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

	f.Fuzz(func(t *testing.T, cfgSel uint16, blockSel uint8, data []byte) {
		cfg := Config{
			LineSize:         64,
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
		addrs := make([]uint64, n)
		writes := make([]bool, n)
		for i := 0; i < n; i++ {
			line := uint64(data[3*i])<<8 | uint64(data[3*i+1])
			addrs[i] = line << 6
			writes[i] = data[3*i+2]&1 == 1
		}

		scalar, batched := New(cfg), New(cfg)
		hits := make([]bool, blockSize)
		for lo := 0; lo < n; lo += blockSize {
			hi := lo + blockSize
			if hi > n {
				hi = n
			}
			batched.AccessBatch(addrs[lo:hi], writes[lo:hi], hits[:hi-lo])
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
