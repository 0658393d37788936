package cachesim

import (
	"fmt"
	"math/bits"
	"sync"
)

// Sharded models one logical set-associative cache split into independent
// set-interleaved shards, the way a multicore LLC is physically banked (and
// the way a NUMA node slices a shared L3). Shard ownership is by the low
// bits of the set index — owner(line) = set(line) mod shards — and each
// shard is a private *Cache over its slice of the sets, remapped so the
// per-shard tags equal the global cache's tags.
//
// Determinism and exactness model (DESIGN.md §15):
//
//   - For LRU and SRRIP, all replacement state is per-set, so a Sharded
//     cache driven with any access stream produces exactly the hit/miss
//     results, final contents and merged Stats the single Cache of the same
//     global geometry produces — including NextLinePrefetch, which Sharded
//     routes to the shard owning line+1 via Cache.Prefetch.
//   - BRRIP and DRRIP carry global policy state (the bimodal counter and
//     PSEL); a Sharded cache gives each shard its own copy — the NUMA-slice
//     model, in which every bank duels independently. Results then differ
//     from the single cache but remain bit-deterministic: they depend only
//     on the access stream and geometry, never on goroutine scheduling.
//   - AccessBatchParallel drives the shards from one goroutine each after
//     compacting the batch per shard. Because every piece of state it
//     touches is shard-private (prefetch, the only cross-shard interaction,
//     forces the serial path), the result is bit-identical to the serial
//     AccessBatch at every shard count — FuzzShardedMergeVsSingle and the
//     sharded differential tests hold all three paths together.
type Sharded struct {
	cfg    Config
	shards []*Cache

	lineBits     uint
	setBits      uint   // log2(global Sets)
	setMask      uint64 // global Sets-1
	shardBits    uint   // log2(len(shards))
	shardMask    uint64 // len(shards)-1
	localSetBits uint   // setBits - shardBits

	// Per-shard compaction scratch for the batch paths, lazily grown.
	batch []shardBatch
}

// shardBatch is one shard's compacted slice of a batch: the remapped
// addresses, the write flags, and each access's index in the original batch
// (for scattering per-access hit results back in order).
type shardBatch struct {
	addrs  []uint64
	writes []bool
	hits   []bool
	idx    []int
}

// NewSharded builds a sharded cache with the given *global* geometry split
// into shards. shards must be a power of two between 1 and cfg.Sets; each
// shard receives cfg.Sets/shards sets at the global associativity. It
// panics on invalid geometry, like New.
func NewSharded(cfg Config, shards int) *Sharded {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if shards < 1 || bits.OnesCount(uint(shards)) != 1 || shards > cfg.Sets {
		panic(fmt.Sprintf("cachesim: shard count %d must be a power of two in [1, Sets=%d]", shards, cfg.Sets))
	}
	s := &Sharded{
		cfg:          cfg,
		shards:       make([]*Cache, shards),
		lineBits:     uint(bits.TrailingZeros(uint(cfg.LineSize))),
		setBits:      uint(bits.TrailingZeros(uint(cfg.Sets))),
		setMask:      uint64(cfg.Sets - 1),
		shardBits:    uint(bits.TrailingZeros(uint(shards))),
		shardMask:    uint64(shards - 1),
		localSetBits: uint(bits.TrailingZeros(uint(cfg.Sets))) - uint(bits.TrailingZeros(uint(shards))),
		batch:        make([]shardBatch, shards),
	}
	sub := cfg
	sub.Sets = cfg.Sets / shards
	// The wrapper routes prefetches itself (line+1 can live in another
	// shard), so the sub-caches never prefetch on their own.
	sub.NextLinePrefetch = false
	for i := range s.shards {
		s.shards[i] = New(sub)
	}
	return s
}

// Config returns the global (pre-split) configuration.
func (s *Sharded) Config() Config { return s.cfg }

// Shards returns the number of shards.
func (s *Sharded) Shards() int { return len(s.shards) }

// Shard returns shard i's underlying cache (for per-shard statistics and
// tests).
func (s *Sharded) Shard(i int) *Cache { return s.shards[i] }

// route maps a global line to its owning shard and the line's address image
// inside that shard's smaller geometry. The remap keeps the tag intact:
// localLine = tag<<localSetBits | set>>shardBits, so the sub-cache computes
// set' = set>>shardBits and tag' = tag.
func (s *Sharded) route(line uint64) (int, uint64) {
	set := line & s.setMask
	tag := line >> s.setBits
	return int(set & s.shardMask), tag<<s.localSetBits | set>>s.shardBits
}

// Access simulates one access, returning true on hit. A demand miss with
// NextLinePrefetch configured prefetches line+1 into the shard owning it,
// exactly where the single cache would install it.
func (s *Sharded) Access(addr uint64, write bool) bool {
	line := addr >> s.lineBits
	shard, local := s.route(line)
	hit := s.shards[shard].Access(local<<s.lineBits, write)
	if !hit && s.cfg.NextLinePrefetch {
		pShard, pLocal := s.route(line + 1)
		s.shards[pShard].Prefetch(pLocal << s.lineBits)
	}
	return hit
}

// compact splits the batch into per-shard sub-batches, preserving each
// shard's relative access order (the only order that can matter once no
// state crosses shards). recordHits sizes the per-shard hit buffers.
func (s *Sharded) compact(addrs []uint64, writes []bool, recordHits bool) {
	for i := range s.batch {
		b := &s.batch[i]
		b.addrs = b.addrs[:0]
		b.writes = b.writes[:0]
		b.idx = b.idx[:0]
	}
	for i, addr := range addrs {
		line := addr >> s.lineBits
		shard, local := s.route(line)
		b := &s.batch[shard]
		b.addrs = append(b.addrs, local<<s.lineBits)
		b.writes = append(b.writes, writes != nil && writes[i])
		b.idx = append(b.idx, i)
	}
	if recordHits {
		for i := range s.batch {
			b := &s.batch[i]
			if cap(b.hits) < len(b.addrs) {
				b.hits = make([]bool, len(b.addrs))
			}
			b.hits = b.hits[:len(b.addrs)]
		}
	}
}

// AccessBatch simulates len(addrs) accesses in order on one goroutine.
// writes nil means all loads; hits, when non-nil, receives per-access hit
// results. With NextLinePrefetch configured it routes access by access (a
// miss's prefetch must land in the neighbouring shard before the next
// access, as in the single cache); otherwise it drives each shard with its
// compacted sub-batch, which is bit-identical because no state is shared
// between shards. Returns the number of hits.
func (s *Sharded) AccessBatch(addrs []uint64, writes, hits []bool) int {
	if s.cfg.NextLinePrefetch {
		n := 0
		for i, addr := range addrs {
			hit := s.Access(addr, writes != nil && writes[i])
			if hits != nil {
				hits[i] = hit
			}
			if hit {
				n++
			}
		}
		return n
	}
	s.compact(addrs, writes, hits != nil)
	n := 0
	for i, c := range s.shards {
		b := &s.batch[i]
		if len(b.addrs) == 0 {
			continue
		}
		if hits != nil {
			n += c.AccessBatch(b.addrs, b.writes, b.hits)
			for j, k := range b.idx {
				hits[k] = b.hits[j]
			}
		} else {
			n += c.AccessBatch(b.addrs, b.writes, nil)
		}
	}
	return n
}

// AccessBatchParallel is AccessBatch with the per-shard sub-batches driven
// by one goroutine per (non-empty) shard. All replacement and statistics
// state is shard-private, so the result — per-access hits, final contents,
// merged Stats — is bit-identical to AccessBatch regardless of scheduling.
// With NextLinePrefetch configured it falls back to the serial path, whose
// cross-shard prefetch ordering cannot be parallelized exactly. Returns the
// number of hits.
func (s *Sharded) AccessBatchParallel(addrs []uint64, writes, hits []bool) int {
	if s.cfg.NextLinePrefetch || len(s.shards) == 1 {
		return s.AccessBatch(addrs, writes, hits)
	}
	s.compact(addrs, writes, hits != nil)
	counts := make([]int, len(s.shards))
	var wg sync.WaitGroup
	for i := range s.shards {
		if len(s.batch[i].addrs) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b := &s.batch[i]
			if hits != nil {
				counts[i] = s.shards[i].AccessBatch(b.addrs, b.writes, b.hits)
				// Distinct batch indices per shard: scatters never overlap.
				for j, k := range b.idx {
					hits[k] = b.hits[j]
				}
			} else {
				counts[i] = s.shards[i].AccessBatch(b.addrs, b.writes, nil)
			}
		}(i)
	}
	wg.Wait()
	n := 0
	for _, c := range counts {
		n += c
	}
	return n
}

// Stats returns the shard statistics merged in shard order. For LRU/SRRIP
// the merge equals the single cache's Stats for the same stream; for
// BRRIP/DRRIP it is the deterministic NUMA-slice aggregate.
func (s *Sharded) Stats() Stats {
	var total Stats
	for _, c := range s.shards {
		st := c.Stats()
		total.Accesses += st.Accesses
		total.Hits += st.Hits
		total.Misses += st.Misses
		total.ReadMiss += st.ReadMiss
		total.WriteMiss += st.WriteMiss
		total.Evictions += st.Evictions
		total.Writebacks += st.Writebacks
		total.Prefetches += st.Prefetches
	}
	return total
}

// Contains reports whether addr's line is resident in its owning shard.
func (s *Sharded) Contains(addr uint64) bool {
	shard, local := s.route(addr >> s.lineBits)
	return s.shards[shard].Contains(local << s.lineBits)
}

// Snapshot calls fn with the base address of every valid line, iterating
// global sets in ascending order like Cache.Snapshot (shard-independent
// order, so ECS scans are deterministic and comparable).
func (s *Sharded) Snapshot(fn func(lineAddr uint64)) {
	for set := 0; set < s.cfg.Sets; set++ {
		c := s.shards[uint64(set)&s.shardMask]
		localSet := set >> s.shardBits
		base := localSet * c.cfg.Ways
		for w := 0; w < c.cfg.Ways; w++ {
			if c.valid[base+w] {
				// Sub-cache tags are global tags by construction.
				line := c.tags[base+w]<<s.setBits | uint64(set)
				fn(line << s.lineBits)
			}
		}
	}
}

// ValidLines returns the number of valid lines across all shards.
func (s *Sharded) ValidLines() int {
	n := 0
	for _, c := range s.shards {
		n += c.ValidLines()
	}
	return n
}

// Reset clears every shard.
func (s *Sharded) Reset() {
	for _, c := range s.shards {
		c.Reset()
	}
}
