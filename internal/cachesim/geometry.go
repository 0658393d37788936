package cachesim

import "math/bits"

// The paper's machine has a 22 MiB shared L3 per socket (Xeon Gold 6130).
// Graphs in the paper are 41M–1.7B vertices, so the L3 holds roughly
// 0.2–7% of the 8-byte vertex-data array. ScaledL3 reproduces that regime
// for arbitrary dataset sizes: it returns a DRRIP cache sized so that it
// caches about `fraction` of a vertex-data array of n 8-byte elements,
// with 64-byte lines and 8-way associativity, sets rounded down to a power
// of two with a minimum of 16 sets, so that even modest synthetic datasets
// (tens of thousands of vertices) sit in the paper's cache-pressure
// regime.
func ScaledL3(n uint32, fraction float64) Config {
	targetBytes := fraction * float64(n) * 8
	const lineSize, ways = 64, 8
	sets := int(targetBytes / (lineSize * ways))
	if sets < 16 {
		sets = 16
	}
	// Round down to a power of two.
	sets = 1 << (bits.Len(uint(sets)) - 1)
	return Config{
		Name:     "L3",
		LineSize: lineSize,
		Sets:     sets,
		Ways:     ways,
		Policy:   DRRIP,
	}
}

// ScaledTLB returns a 4-way LRU DTLB sized to translate roughly
// `fraction` of a memory footprint of totalBytes with 4 KiB pages
// (minimum 16 entries), preserving the paper's TLB-pressure regime the
// same way ScaledL3 does for the cache.
func ScaledTLB(totalBytes uint64, fraction float64) TLBConfig {
	const pageSize, ways = 4096, 4
	entries := int(fraction * float64(totalBytes) / pageSize)
	if entries < 16 {
		entries = 16
	}
	// Round down to a power of two and align to whole sets.
	entries = 1 << (bits.Len(uint(entries)) - 1)
	if entries < ways {
		entries = ways
	}
	return TLBConfig{PageSize: pageSize, Entries: entries, Ways: ways}
}

// DefaultVertexCacheFraction is the default fraction of the vertex-data
// array the scaled L3 can hold, chosen to sit inside the paper's 0.2–7%
// range (see DESIGN.md §5).
const DefaultVertexCacheFraction = 0.04

// DefaultTLBFraction is the fraction of the memory footprint the scaled
// DTLB translates (see ScaledTLB).
const DefaultTLBFraction = 0.10

// SkylakeL3 returns the paper machine's per-socket L3 geometry: 22 MiB,
// 64-byte lines, 11-way (32768 sets), DRRIP replacement.
func SkylakeL3() Config {
	return Config{Name: "L3", LineSize: 64, Sets: 32768, Ways: 11, Policy: DRRIP}
}
