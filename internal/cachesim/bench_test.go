package cachesim

import "testing"

func benchAccess(b *testing.B, p Policy) {
	c := New(Config{Name: "b", LineSize: 64, Sets: 1024, Ways: 8, Policy: p})
	rng := newTestRNG(42)
	addrs := make([]uint64, 1<<16)
	for i := range addrs {
		addrs[i] = rng.next() & 0xFFFFFF
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i&(len(addrs)-1)], i&7 == 0)
	}
}

func BenchmarkAccessLRU(b *testing.B)   { benchAccess(b, LRU) }
func BenchmarkAccessSRRIP(b *testing.B) { benchAccess(b, SRRIP) }
func BenchmarkAccessDRRIP(b *testing.B) { benchAccess(b, DRRIP) }

func BenchmarkTLBAccess(b *testing.B) {
	t := NewTLB(TLBConfig{PageSize: 4096, Entries: 1536, Ways: 12})
	rng := newTestRNG(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Access(rng.next() & 0xFFFFFFF)
	}
}

func BenchmarkHierarchyAccess(b *testing.B) {
	h := NewHierarchy(
		Config{Name: "L1", LineSize: 64, Sets: 64, Ways: 8, Policy: LRU},
		Config{Name: "L2", LineSize: 64, Sets: 512, Ways: 8, Policy: LRU},
		Config{Name: "L3", LineSize: 64, Sets: 2048, Ways: 8, Policy: DRRIP},
	)
	rng := newTestRNG(9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(rng.next()&0xFFFFFF, false)
	}
}

// benchAccessBatch measures the batched path on the same address
// distribution as benchAccess; b.N counts simulated accesses, so ns/op is
// directly comparable to the scalar benchmarks above.
func benchAccessBatch(b *testing.B, p Policy) {
	c := New(Config{Name: "b", LineSize: 64, Sets: 1024, Ways: 8, Policy: p})
	rng := newTestRNG(42)
	addrs := make([]uint64, 1<<16)
	writes := make([]bool, 1<<16)
	for i := range addrs {
		addrs[i] = rng.next() & 0xFFFFFF
		writes[i] = i&7 == 0
	}
	const block = 4096
	b.ResetTimer()
	for done := 0; done < b.N; {
		for lo := 0; lo < len(addrs) && done < b.N; lo += block {
			hi := lo + block
			if n := b.N - done; hi-lo > n {
				hi = lo + n
			}
			c.AccessBatch(addrs[lo:hi], writes[lo:hi], nil)
			done += hi - lo
		}
	}
}

func BenchmarkAccessBatchLRU(b *testing.B)   { benchAccessBatch(b, LRU) }
func BenchmarkAccessBatchSRRIP(b *testing.B) { benchAccessBatch(b, SRRIP) }
func BenchmarkAccessBatchDRRIP(b *testing.B) { benchAccessBatch(b, DRRIP) }
