package cachesim

import (
	"fmt"
	"math/bits"
)

// TLB wraps Cache to model a data TLB: a set-associative cache of virtual
// page translations. The paper reports DTLB misses as a locality metric at
// page granularity, i.e. at longer reuse distances than L3 misses (§VI-E).
type TLB struct {
	c        *Cache
	pageSize int
}

// TLBConfig describes the TLB geometry.
type TLBConfig struct {
	PageSize int // bytes; power of two (4096 or 2<<20)
	Entries  int // total translations
	Ways     int
}

// Validate reports whether NewTLB can build the geometry: a positive
// power-of-two PageSize, and Entries a positive multiple of Ways whose
// quotient, the set count, is a power of two.
func (c TLBConfig) Validate() error {
	if c.PageSize <= 0 || bits.OnesCount(uint(c.PageSize)) != 1 {
		return fmt.Errorf("cachesim: TLB PageSize %d must be a positive power of two", c.PageSize)
	}
	if c.Ways <= 0 || c.Entries <= 0 || c.Entries%c.Ways != 0 {
		return fmt.Errorf("cachesim: TLB Entries %d must be a positive multiple of Ways %d", c.Entries, c.Ways)
	}
	if sets := c.Entries / c.Ways; bits.OnesCount(uint(sets)) != 1 {
		return fmt.Errorf("cachesim: TLB Entries %d / Ways %d = %d sets must be a power of two", c.Entries, c.Ways, sets)
	}
	return c.cache().Validate()
}

// cache returns the LRU cache of translations the TLB runs on.
func (c TLBConfig) cache() Config {
	return Config{Name: "DTLB", LineSize: c.PageSize, Sets: c.Entries / c.Ways, Ways: c.Ways, Policy: LRU}
}

// NewTLB builds a TLB with LRU replacement. It panics if cfg does not
// validate.
func NewTLB(cfg TLBConfig) *TLB {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &TLB{c: New(cfg.cache()), pageSize: cfg.PageSize}
}

// Access looks up addr's page translation; returns true on TLB hit.
func (t *TLB) Access(addr uint64) bool { return t.c.Access(addr, false) }

// Stats returns accumulated statistics.
func (t *TLB) Stats() Stats { return t.c.Stats() }

// Reset clears contents and statistics.
func (t *TLB) Reset() { t.c.Reset() }

// PageSize returns the translation granularity in bytes.
func (t *TLB) PageSize() int { return t.pageSize }
