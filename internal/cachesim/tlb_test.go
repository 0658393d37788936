package cachesim

import "testing"

func TestTLBPageGranularity(t *testing.T) {
	tlb := NewTLB(TLBConfig{PageSize: 4096, Entries: 16, Ways: 4})
	if tlb.Access(0) {
		t.Error("cold TLB access hit")
	}
	// Any address on the same page hits.
	if !tlb.Access(4095) {
		t.Error("same-page access missed")
	}
	// Next page misses.
	if tlb.Access(4096) {
		t.Error("next-page access hit")
	}
	if tlb.PageSize() != 4096 {
		t.Errorf("PageSize = %d", tlb.PageSize())
	}
}

func TestTLBCapacity(t *testing.T) {
	tlb := NewTLB(TLBConfig{PageSize: 4096, Entries: 8, Ways: 2})
	// Touch 8 pages: all fit.
	for p := uint64(0); p < 8; p++ {
		tlb.Access(p * 4096)
	}
	for p := uint64(0); p < 8; p++ {
		if !tlb.Access(p * 4096) {
			t.Errorf("page %d evicted from an exactly-fitting TLB", p)
		}
	}
	st := tlb.Stats()
	if st.Misses != 8 || st.Hits != 8 {
		t.Errorf("stats = %+v", st)
	}
	tlb.Reset()
	if tlb.Stats().Accesses != 0 {
		t.Error("reset failed")
	}
}

func TestTLBConfigValidate(t *testing.T) {
	for _, cfg := range []TLBConfig{TLBConfig{PageSize: 4096, Entries: 1536, Ways: 12}, ScaledTLB(64<<20, 0.1), ScaledTLB(100, 0.1),
		{PageSize: 2 << 20, Entries: 4, Ways: 4}} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%+v: %v", cfg, err)
		}
	}
	bad := []TLBConfig{
		{PageSize: 4096, Entries: 12, Ways: 8}, // not a multiple of Ways
		{PageSize: 4096, Entries: 3, Ways: 4},  // fewer entries than ways
		{PageSize: 4096, Entries: 24, Ways: 8}, // 3 sets
		{PageSize: 4096, Entries: 0, Ways: 4},
		{PageSize: 4096, Entries: 16, Ways: 0},
		{PageSize: 4096, Entries: -8, Ways: 4},
		{PageSize: 0, Entries: 16, Ways: 4},
		{PageSize: 3000, Entries: 16, Ways: 4},
		{PageSize: 4096, Entries: 2 * maxLines, Ways: 2}, // more lines than a cache may hold
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("%+v validated", cfg)
		}
		func() {
			defer func() {
				r := recover()
				err, ok := r.(error)
				if !ok || err.Error() != cfg.Validate().Error() {
					t.Errorf("NewTLB(%+v) panicked with %v, want its Validate error", cfg, r)
				}
			}()
			NewTLB(cfg)
		}()
	}
}

func TestScaledL3(t *testing.T) {
	cfg := ScaledL3(1<<20, 0.04)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	// Capacity should be within 2x of the 4% target (power-of-two rounding).
	target := 0.04 * float64(uint32(1<<20)) * 8
	size := float64(cfg.SizeBytes())
	if size < target/2 || size > target*1.01 {
		t.Errorf("ScaledL3 size %v not within (target/2, target]: target %v", size, target)
	}
	if cfg.Policy != DRRIP {
		t.Error("ScaledL3 should use DRRIP")
	}
	// Tiny graphs still get the minimum geometry.
	tiny := ScaledL3(16, 0.04)
	if tiny.Sets < 16 {
		t.Errorf("minimum sets not enforced: %d", tiny.Sets)
	}
}

func TestScaledTLB(t *testing.T) {
	cfg := ScaledTLB(64<<20, 0.1)
	if cfg.Entries < 16 || cfg.Entries%cfg.Ways != 0 {
		t.Errorf("ScaledTLB = %+v", cfg)
	}
	tlb := NewTLB(cfg)
	if tlb.PageSize() != 4096 {
		t.Error("wrong page size")
	}
	small := ScaledTLB(100, 0.1)
	if small.Entries < 16 {
		t.Errorf("minimum entries not enforced: %d", small.Entries)
	}
}

func TestSkylakeL3Geometry(t *testing.T) {
	cfg := SkylakeL3()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.SizeBytes() != 22*1024*1024 {
		t.Errorf("SkylakeL3 size = %d bytes, want 22 MiB", cfg.SizeBytes())
	}
}
