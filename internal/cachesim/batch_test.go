package cachesim

import (
	"fmt"
	"math/rand"
	"testing"
)

// State-level differential tests for AccessBatch. The core differential
// suite compares end-to-end SimResults; these compare the *complete*
// internal cache state — full and partial tags, dirty bits, RRPVs or LRU
// stamps, PSEL, BRRIP counter, LRU clock, per-set occupancy and
// statistics — after every
// batch cut, so a divergence is caught at the first access that drifts
// rather than smeared into an end-of-run counter diff.

// assertSameState compares every piece of mutable state of two caches:
// the policy state, the statistics and every set record, pad lanes
// included.
func assertSameState(t *testing.T, name string, want, got *Cache) {
	t.Helper()
	if want.stats != got.stats {
		t.Fatalf("%s: stats = %+v, want %+v", name, got.stats, want.stats)
	}
	if want.psel != got.psel || want.clock != got.clock || want.brripCtr != got.brripCtr {
		t.Fatalf("%s: (psel,clock,brripCtr) = (%d,%d,%d), want (%d,%d,%d)",
			name, got.psel, got.clock, got.brripCtr, want.psel, want.clock, want.brripCtr)
	}
	if len(want.recs) != len(got.recs) {
		t.Fatalf("%s: %d records, want %d", name, len(got.recs), len(want.recs))
	}
	for i, w := range want.recs {
		g := got.recs[i]
		var field string
		switch {
		case w.tags != g.tags:
			field = "tags"
		case w.ptag != g.ptag:
			field = "partial tags"
		case w.dirty != g.dirty:
			field = "dirty bits"
		case w.rrpv != g.rrpv || w.stamp != g.stamp:
			field = "replacement metadata"
		case w.occ != g.occ:
			field = "occupancy"
		default:
			continue
		}
		t.Fatalf("%s: %s of record %d (set %d) diverge: got %+v, want %+v",
			name, field, i, 8*i/want.stride, g, w)
	}
}

// runDifferential drives the same stream through scalar Access and through
// AccessBatch cut at the given block size, comparing per-access results and
// full state after every block.
func runDifferential(t *testing.T, name string, cfg Config, addrs []uint64, writes []bool, blockSize int) {
	t.Helper()
	scalar, batched := New(cfg), New(cfg)
	hits := make([]bool, blockSize)
	for lo := 0; lo < len(addrs); lo += blockSize {
		hi := lo + blockSize
		if hi > len(addrs) {
			hi = len(addrs)
		}
		block := addrs[lo:hi]
		var wblock []bool
		if writes != nil {
			wblock = writes[lo:hi]
		}
		n := batched.AccessBatch(block, wblock, hits[:len(block)])
		nScalar := 0
		for i, a := range block {
			w := writes != nil && writes[lo+i]
			hit := scalar.Access(a, w)
			if hit {
				nScalar++
			}
			if hits[i] != hit {
				t.Fatalf("%s: access %d (addr %#x): batched hit=%v, scalar hit=%v",
					name, lo+i, a, hits[i], hit)
			}
		}
		if n != nScalar {
			t.Fatalf("%s: block [%d,%d): batched %d hits, scalar %d", name, lo, hi, n, nScalar)
		}
		assertSameState(t, fmt.Sprintf("%s after block [%d,%d)", name, lo, hi), scalar, batched)
	}
}

// mixedStream generates a stream mixing sequential runs (edge-array-like),
// random single accesses (vertex-data-like) and occasional writes, confined
// to a window that keeps the cache under contention.
func mixedStream(rng *rand.Rand, n int, window uint64) ([]uint64, []bool) {
	addrs := make([]uint64, 0, n)
	writes := make([]bool, 0, n)
	for len(addrs) < n {
		switch rng.Intn(3) {
		case 0: // sequential run
			base := rng.Uint64() % window
			for k := 0; k < 8 && len(addrs) < n; k++ {
				addrs = append(addrs, base+uint64(k)*8)
				writes = append(writes, false)
			}
		case 1: // random read
			addrs = append(addrs, rng.Uint64()%window)
			writes = append(writes, false)
		default: // random write
			addrs = append(addrs, rng.Uint64()%window)
			writes = append(writes, true)
		}
	}
	return addrs, writes
}

// TestAccessBatchMatchesScalar sweeps policy × prefetch × batch cut over a
// contended mixed stream.
func TestAccessBatchMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	addrs, writes := mixedStream(rng, 20000, 1<<20)
	for _, pol := range []Policy{LRU, SRRIP, BRRIP, DRRIP} {
		for _, prefetch := range []bool{false, true} {
			// 64 sets × 8 ways: small enough to thrash, one word of
			// partial tags and RRPVs per set.
			cfg := Config{LineSize: 64, Sets: 64, Ways: 8, Policy: pol, NextLinePrefetch: prefetch}
			// Block size 1 pins per-access equivalence; 7 lands cuts at
			// awkward offsets; 4096 is the production block size.
			for _, bs := range []int{1, 7, 4096} {
				name := fmt.Sprintf("%s/prefetch=%v/bs=%d", pol, prefetch, bs)
				runDifferential(t, name, cfg, addrs, writes, bs)
			}
		}
	}
}

// TestAccessBatchInterleavedWithScalar drives one cache through runs of
// scalar Access calls and AccessBatch blocks in turn, cut at seeded points,
// and compares per-access hits and the full state after every run against
// a cache that only ever saw scalar Access calls. Both entry points read
// and write the same set records and policy state, so a field one of them
// keeps in a local it forgets to write back, or reads stale, shows up at
// the next switch. 8 ways takes the batched kernel, 11 its per-access
// fallback.
func TestAccessBatchInterleavedWithScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	addrs, writes := mixedStream(rng, 12000, 1<<19)
	for _, ways := range []int{8, 11} {
		for _, pol := range []Policy{LRU, SRRIP, BRRIP, DRRIP} {
			for _, prefetch := range []bool{false, true} {
				name := fmt.Sprintf("ways=%d/%s/prefetch=%v", ways, pol, prefetch)
				cfg := Config{LineSize: 64, Sets: 32, Ways: ways, Policy: pol, NextLinePrefetch: prefetch}
				scalar, mixed := New(cfg), New(cfg)
				cuts := rand.New(rand.NewSource(int64(8*ways + int(pol))))
				hits := make([]bool, 256)
				batch := prefetch // start with either entry point
				for lo := 0; lo < len(addrs); batch = !batch {
					hi := min(lo+1+cuts.Intn(len(hits)), len(addrs))
					if batch {
						mixed.AccessBatch(addrs[lo:hi], writes[lo:hi], hits[:hi-lo])
					} else {
						for i := lo; i < hi; i++ {
							hits[i-lo] = mixed.Access(addrs[i], writes[i])
						}
					}
					for i := lo; i < hi; i++ {
						if want := scalar.Access(addrs[i], writes[i]); hits[i-lo] != want {
							t.Fatalf("%s: access %d (addr %#x, batched=%v): hit=%v, scalar hit=%v",
								name, i, addrs[i], batch, hits[i-lo], want)
						}
					}
					assertSameState(t, fmt.Sprintf("%s after [%d,%d) batched=%v", name, lo, hi, batch), scalar, mixed)
					lo = hi
				}
			}
		}
	}
}

// TestAccessBatchOddWays covers associativities that are not a multiple of
// 8, whose sets end in pad ways, and sets of two and three words: 1 and 3
// ways take AccessBatch's one-word kernel, the wider ones its per-access
// fallback.
func TestAccessBatchOddWays(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	addrs, writes := mixedStream(rng, 8000, 1<<18)
	for _, ways := range []int{1, 3, 11, 12, 16, 24} {
		cfg := Config{LineSize: 64, Sets: 16, Ways: ways, Policy: DRRIP}
		runDifferential(t, fmt.Sprintf("ways=%d", ways), cfg, addrs, writes, 97)
	}
}

// TestAccessBatchDRRIPLeaderBoundary drives a batch whose accesses alternate
// across the SRRIP-leader set (set 0), the BRRIP-leader set (set 1) and a
// follower set within one block, checking that the branchless PSEL updates
// and the role-dependent insertions agree with the scalar path exactly —
// including the final PSEL value, read directly.
func TestAccessBatchDRRIPLeaderBoundary(t *testing.T) {
	cfg := Config{LineSize: 64, Sets: 64, Ways: 2, Policy: DRRIP}
	// With 64-byte lines and 64 sets, set(addr) = (addr>>6)&63. Conflict
	// misses in sets 0, 1 and 40: every miss in a leader set moves PSEL.
	var addrs []uint64
	for k := 0; k < 2000; k++ {
		set := uint64([]int{0, 1, 40}[k%3])
		tag := uint64(k % 7) // 7 tags > 2 ways: constant conflict misses
		addrs = append(addrs, (tag<<6|set)<<6)
	}
	scalar, batched := New(cfg), New(cfg)
	for _, a := range addrs {
		scalar.Access(a, false)
	}
	// One batch spanning every leader-set transition.
	batched.AccessBatch(addrs, nil, nil)
	assertSameState(t, "drrip-leaders", scalar, batched)
	if scalar.psel == pselInit {
		t.Fatal("stream never moved PSEL; test exercises nothing")
	}
	// PSEL saturation at both rails: hammer only the SRRIP leader, then
	// only the BRRIP leader, far past the counter range.
	scalar.Reset()
	batched.Reset()
	var rail []uint64
	for k := 0; k < 3*pselMax; k++ {
		rail = append(rail, uint64(k%5)<<12) // set 0, 5 conflicting tags
	}
	for k := 0; k < 3*pselMax; k++ {
		rail = append(rail, uint64(k%5)<<12|1<<6) // set 1
	}
	for _, a := range rail {
		scalar.Access(a, false)
	}
	batched.AccessBatch(rail, nil, nil)
	assertSameState(t, "psel-rails", scalar, batched)
}

// TestAccessBatchPrefetchAddressWrap pins next-line prefetching at the top
// of the address space. With lineBits > 0 the last line's successor is a
// phantom line index just past the address space (2^(64-lineBits)), which
// occupies a way but is unreachable by any demand address; with lineBits ==
// 0 the line index spans the full 64 bits and line+1 genuinely wraps to
// line 0. Both paths share prefetch(), so what matters is that the batched
// miss path calls it with the same argument and the states stay identical.
func TestAccessBatchPrefetchAddressWrap(t *testing.T) {
	t.Run("phantom-line", func(t *testing.T) {
		cfg := Config{LineSize: 64, Sets: 16, Ways: 4, Policy: SRRIP, NextLinePrefetch: true}
		lastLine := (^uint64(0)) >> 6 // line index of the top of the address space
		addrs := []uint64{
			lastLine << 6,       // miss; prefetches the phantom line 2^58
			(lastLine - 1) << 6, // miss; prefetches lastLine (already resident)
			^uint64(0),          // last byte of the address space, same last line
		}
		scalar, batched := New(cfg), New(cfg)
		hits := make([]bool, len(addrs))
		batched.AccessBatch(addrs, nil, hits)
		for _, a := range addrs {
			scalar.Access(a, false)
		}
		assertSameState(t, "phantom-line", scalar, batched)
		if !hits[2] {
			t.Fatal("second access to the last line missed")
		}
		// Only the phantom line counts: re-prefetching the already-resident
		// lastLine returns before touching the counter.
		if p := batched.Stats().Prefetches; p != 1 {
			t.Fatalf("Prefetches = %d, want 1", p)
		}
	})
	t.Run("true-wrap", func(t *testing.T) {
		// 1-byte lines: line == addr, so the successor of ^uint64(0) wraps
		// to line 0.
		cfg := Config{LineSize: 1, Sets: 16, Ways: 4, Policy: LRU, NextLinePrefetch: true}
		addrs := []uint64{
			^uint64(0), // miss; prefetch(line+1) wraps to line 0
			0,          // must hit the wrapped prefetch
		}
		scalar, batched := New(cfg), New(cfg)
		hits := make([]bool, len(addrs))
		batched.AccessBatch(addrs, nil, hits)
		for _, a := range addrs {
			scalar.Access(a, false)
		}
		assertSameState(t, "true-wrap", scalar, batched)
		if !hits[1] {
			t.Fatal("access to line 0 missed; prefetch(^uint64(0)+1) did not wrap")
		}
	})
}

// TestTLBAccessBatchPageStraddle sends a batch whose consecutive addresses
// straddle page boundaries — the last byte of one page followed by the
// first of the next — plus re-touches, and checks per-access results and
// state against the scalar TLB.
func TestTLBAccessBatchPageStraddle(t *testing.T) {
	cfg := TLBConfig{PageSize: 4096, Entries: 16, Ways: 4}
	var addrs []uint64
	for p := uint64(0); p < 40; p++ {
		addrs = append(addrs,
			p*4096+4095, // last byte of page p
			(p+1)*4096,  // first byte of page p+1
			p*4096+2048, // back into page p: must hit
		)
	}
	scalar, batched := NewTLB(cfg), NewTLB(cfg)
	hits := make([]bool, len(addrs))
	batched.AccessBatch(addrs, hits)
	for i, a := range addrs {
		if hit := scalar.Access(a); hit != hits[i] {
			t.Fatalf("access %d (addr %#x): batched hit=%v, scalar hit=%v", i, a, hits[i], hit)
		}
	}
	assertSameState(t, "tlb-straddle", scalar.c, batched.c)
}

// TestAccessBatchDegenerateGeometry runs the 1-byte-line single-set cache,
// where a tag spans all 64 bits of the address, so no tag value is free to
// mark an empty way: the probe must go by occupancy alone.
func TestAccessBatchDegenerateGeometry(t *testing.T) {
	cfg := Config{LineSize: 1, Sets: 1, Ways: 2, Policy: LRU}
	// Includes 0, the tag every free way holds, and ^uint64(0).
	addrs := []uint64{0, 1, ^uint64(0), 0, ^uint64(0), 2, 1, ^uint64(0)}
	scalar, batched := New(cfg), New(cfg)
	hits := make([]bool, len(addrs))
	batched.AccessBatch(addrs, nil, hits)
	for i, a := range addrs {
		if hit := scalar.Access(a, false); hit != hits[i] {
			t.Fatalf("access %d (addr %#x): batched hit=%v, scalar hit=%v", i, a, hits[i], hit)
		}
	}
	assertSameState(t, "degenerate", scalar, batched)
}

// TestAccessBatchMemoStartsEmpty pins the line memo's initial entries. With
// 1-byte lines and two sets, line ^0 and line ^0-1 have the same tag in
// different sets; after the second fills set 0's way 0, an access to the
// first must miss, whichever way the memo starts out naming.
func TestAccessBatchMemoStartsEmpty(t *testing.T) {
	cfg := Config{LineSize: 1, Sets: 2, Ways: 1, Policy: LRU}
	addrs := []uint64{^uint64(0) - 1, ^uint64(0)}
	hits := make([]bool, len(addrs))
	New(cfg).AccessBatch(addrs, nil, hits)
	if hits[1] {
		t.Fatal("line ^0 hit in an empty set")
	}
}

// TestAccessBatchMemoInvalidatedOnEviction pins the memo's invariant: a
// line the memo names is evicted by a fill into its way and then accessed
// again, within one batch, so the access must miss although the memo once
// named it. In a 1-way set the line after it evicts it; in the 2-way BRRIP
// set, lines A B C D C, D's fill takes C's way while C is the memo's
// newest entry. Each stream runs with writes and with nil writes (the
// TLB's call shape) and must match scalar Access in hits and state.
func TestAccessBatchMemoInvalidatedOnEviction(t *testing.T) {
	const line = 64
	lines := func(ls ...uint64) []uint64 {
		addrs := make([]uint64, len(ls))
		for i, l := range ls {
			addrs[i] = l * line
		}
		return addrs
	}
	cases := []struct {
		name  string
		cfg   Config
		addrs []uint64
	}{
		{"LRU/1-way", Config{LineSize: line, Sets: 1, Ways: 1, Policy: LRU}, lines(1, 2, 1, 2, 2, 1)},
		{"SRRIP/1-way", Config{LineSize: line, Sets: 1, Ways: 1, Policy: SRRIP}, lines(1, 2, 1, 2, 2, 1)},
		{"DRRIP/1-way", Config{LineSize: line, Sets: 2, Ways: 1, Policy: DRRIP}, lines(1, 3, 1, 0, 2, 0, 3)},
		{"BRRIP/2-way", Config{LineSize: line, Sets: 1, Ways: 2, Policy: BRRIP}, lines(1, 2, 3, 4, 3, 4)},
	}
	for _, tc := range cases {
		// The stream must re-access an evicted line: its last access
		// misses under the scalar path.
		ref := New(tc.cfg)
		var hit bool
		for _, a := range tc.addrs {
			hit = ref.Access(a, false)
		}
		if hit {
			t.Fatalf("%s: last access hits; the stream evicts nothing", tc.name)
		}
		writes := make([]bool, len(tc.addrs))
		for i := range writes {
			writes[i] = i%2 == 1
		}
		runDifferential(t, tc.name, tc.cfg, tc.addrs, writes, len(tc.addrs))
		runDifferential(t, tc.name+"/nil-writes", tc.cfg, tc.addrs, nil, len(tc.addrs))
	}
}

// TestOccTracksValid cross-checks the per-set occupancy counters after a
// contended run: a set holds as many lines as were ever filled into it,
// up to its associativity (fills take free ways first and nothing frees
// one), and only its first record counts them; the valid ways hold
// distinct lines of the set with their tags' low bytes as partial tags;
// every free way and pad lane is zero. Caches without prefetch fill
// through the batchRRIP and batchLRU kernels, prefetching ones through
// the scalar path; a short prefix of the stream leaves sets part-full.
func TestOccTracksValid(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	addrs, writes := mixedStream(rng, 10000, 1<<16)
	cfgs := []Config{
		{Ways: 8, Policy: DRRIP, NextLinePrefetch: true},
		{Ways: 11, Policy: DRRIP, NextLinePrefetch: true},
		{Ways: 8, Policy: DRRIP},
		{Ways: 4, Policy: SRRIP},
		{Ways: 4, Policy: BRRIP},
		{Ways: 4, Policy: LRU},
		{Ways: 8, Policy: LRU},
	}
	for _, cfg := range cfgs {
		cfg.LineSize, cfg.Sets = 64, 16
		for _, n := range []int{40, len(addrs)} {
			name := fmt.Sprintf("%s/ways=%d/prefetch=%v/n=%d", cfg.Policy, cfg.Ways, cfg.NextLinePrefetch, n)
			checkOcc(t, name, cfg, addrs[:n], writes[:n])
		}
	}
}

// checkOcc runs one batch through a fresh cache of cfg (16 sets of
// 64-byte lines) and checks every set against the occupancy oracle.
func checkOcc(t *testing.T, name string, cfg Config, addrs []uint64, writes []bool) {
	t.Helper()
	c := New(cfg)
	hits := make([]bool, len(addrs))
	c.AccessBatch(addrs, writes, hits)
	// Every demand line is filled or resident; a prefetching miss also
	// fills the next line.
	filled := make([]map[uint64]bool, c.cfg.Sets)
	for i := range filled {
		filled[i] = map[uint64]bool{}
	}
	for i, a := range addrs {
		line := a >> 6
		filled[line%16][line] = true
		if cfg.NextLinePrefetch && !hits[i] {
			filled[(line+1)%16][line+1] = true
		}
	}
	for set := 0; set < c.cfg.Sets; set++ {
		recs := c.setRecs(set * c.stride)
		occ := int(recs[0].occ)
		if want := min(len(filled[set]), cfg.Ways); occ != want {
			t.Fatalf("%s set %d: occ=%d but %d lines filled", name, set, occ, want)
		}
		seen := map[uint64]bool{}
		for w := 0; w < c.stride; w++ {
			r, lane := &recs[w>>3], w&7
			if w >= 8 && lane == 0 && r.occ != 0 {
				t.Fatalf("%s set %d: record %d counts %d ways", name, set, w>>3, r.occ)
			}
			if w >= occ {
				if r.tags[lane] != 0 || r.ptag[lane] != 0 || r.rrpv[lane] != 0 || r.stamp[lane] != 0 || r.dirty[lane] {
					t.Fatalf("%s set %d: free way %d is not zero", name, set, w)
				}
				continue
			}
			line := r.tags[lane]
			if seen[line] || !filled[set][line] || r.ptag[lane] != uint8(line>>4) || r.rrpv[lane] > rrpvMax {
				t.Fatalf("%s set %d: way %d holds tag %#x, partial tag %#x, RRPV %d",
					name, set, w, line, r.ptag[lane], r.rrpv[lane])
			}
			seen[line] = true
		}
	}
}
