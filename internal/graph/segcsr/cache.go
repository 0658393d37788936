package segcsr

import (
	"container/list"
	"sync"

	"graphlocality/internal/obs"
)

// segKey identifies one decoded segment: direction × segment index.
type segKey struct {
	in  bool
	seg int
}

// segment is one decoded segment resident in the cache.
type segment struct {
	off []uint64 // absolute offsets, len = vertices+1, off[0] = firstEdge
	adj []uint32
}

func (s *segment) bytes() int64 {
	return int64(len(s.off))*8 + int64(len(s.adj))*4
}

// segCache is a byte-budgeted LRU over decoded segments. The eviction
// discipline is evict-before-insert, and a segment whose decoded size
// alone exceeds the budget is returned to the caller but never cached —
// together those make "resident bytes ≤ budget" a strict invariant, not
// a high-water heuristic, which is what the budget-bounded acceptance
// test asserts through the obs gauges.
//
// Instrumentation (all nil-safe through obs):
//
//	segcsr.cache.hits / misses / evictions   counters
//	segcsr.cache.resident_bytes / resident_segments / peak_bytes  gauges
type segCache struct {
	mu       sync.Mutex
	budget   int64
	resident int64
	peak     int64
	entries  map[segKey]*list.Element
	lru      *list.List // front = most recently used; values are *cacheEntry

	hits, misses, evictions *obs.Counter
	gBytes, gSegs, gPeak    *obs.Gauge
}

type cacheEntry struct {
	key segKey
	seg *segment
}

func newSegCache(budget int64, rec *obs.Registry) *segCache {
	return &segCache{
		budget:    budget,
		entries:   make(map[segKey]*list.Element),
		lru:       list.New(),
		hits:      rec.Counter("segcsr.cache.hits"),
		misses:    rec.Counter("segcsr.cache.misses"),
		evictions: rec.Counter("segcsr.cache.evictions"),
		gBytes:    rec.Gauge("segcsr.cache.resident_bytes"),
		gSegs:     rec.Gauge("segcsr.cache.resident_segments"),
		gPeak:     rec.Gauge("segcsr.cache.peak_bytes"),
	}
}

// get returns the cached segment and marks it most-recently-used, or nil
// on a miss.
func (c *segCache) get(k segKey) *segment {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		c.lru.MoveToFront(el)
		c.hits.Inc()
		return el.Value.(*cacheEntry).seg
	}
	c.misses.Inc()
	return nil
}

// put inserts a freshly decoded segment, evicting LRU entries first so
// resident bytes never exceed the budget. Oversize segments (and a
// duplicate insert racing with another reader) leave the cache untouched.
func (c *segCache) put(k segKey, s *segment) {
	sz := s.bytes()
	c.mu.Lock()
	defer c.mu.Unlock()
	if sz > c.budget {
		return
	}
	if _, ok := c.entries[k]; ok {
		return
	}
	for c.resident+sz > c.budget {
		back := c.lru.Back()
		if back == nil {
			break
		}
		ent := back.Value.(*cacheEntry)
		c.lru.Remove(back)
		delete(c.entries, ent.key)
		c.resident -= ent.seg.bytes()
		c.evictions.Inc()
	}
	c.entries[k] = c.lru.PushFront(&cacheEntry{key: k, seg: s})
	c.resident += sz
	if c.resident > c.peak {
		c.peak = c.resident
		c.gPeak.Set(float64(c.peak))
	}
	c.gBytes.Set(float64(c.resident))
	c.gSegs.Set(float64(c.lru.Len()))
}
