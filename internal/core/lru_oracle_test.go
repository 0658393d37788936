package core

import (
	"fmt"
	"testing"

	"graphlocality/internal/cachesim"
	"graphlocality/internal/gen"
	"graphlocality/internal/graph"
	"graphlocality/internal/trace"
)

// The differential walls compare the fast simulate path against a
// reference that drives the same cachesim.Cache, so a bug in the cache
// model itself passes all of them. The tests in this file check cachesim's
// LRU against lruOracle, a deliberately naive model that shares no code
// with cachesim: no timestamps, no tag/set bit tricks, no occupancy
// counters, no batch path. Only the plain cachesim.Stats struct is shared,
// as the type the counters are compared in.

// lruEntry is one resident line: its full line number and dirty bit.
type lruEntry struct {
	line  uint64
	dirty bool
}

// lruOracle is a write-allocate, write-back, set-associative LRU cache:
// one move-to-front list per set, most recently used first. A line maps to
// set (addr/LineSize) % Sets; a full set evicts the list's last entry.
type lruOracle struct {
	lineSize, ways uint64
	sets           [][]lruEntry
	stats          cachesim.Stats
}

func newLRUOracle(lineSize, sets, ways int) *lruOracle {
	return &lruOracle{lineSize: uint64(lineSize), ways: uint64(ways), sets: make([][]lruEntry, sets)}
}

// access simulates one access and reports whether it hit.
func (o *lruOracle) access(addr uint64, write bool) bool {
	o.stats.Accesses++
	line := addr / o.lineSize
	s := line % uint64(len(o.sets))
	list := o.sets[s]
	for i, e := range list {
		if e.line == line {
			o.stats.Hits++
			e.dirty = e.dirty || write
			// Move to front.
			copy(list[1:i+1], list[:i])
			list[0] = e
			return true
		}
	}
	o.stats.Misses++
	if write {
		o.stats.WriteMiss++
	} else {
		o.stats.ReadMiss++
	}
	if uint64(len(list)) == o.ways {
		o.stats.Evictions++
		if list[len(list)-1].dirty {
			o.stats.Writebacks++
		}
		list = list[:len(list)-1]
	}
	o.sets[s] = append([]lruEntry{{line: line, dirty: write}}, list...)
	return false
}

// oracleStream materializes the access stream of one SpMV traversal of g.
func oracleStream(g graph.Topology, dir trace.Direction) (addrs []uint64, writes []bool) {
	trace.Generate(g, trace.NewLayout(g), trace.Whole(g, dir), 0, false, func(b *trace.Block) bool {
		addrs = append(addrs, b.Addrs...)
		writes = append(writes, b.Writes...)
		return true
	})
	return addrs, writes
}

// TestLRUOracleMatchesSimulate runs the oracle over the real pull and push
// streams of two tiny graphs on a (sets × ways × line size) grid and
// requires both simulate paths to report the oracle's counters exactly.
func TestLRUOracleMatchesSimulate(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"rmat": gen.SocialNetwork(9, 8, 1),
		"er":   gen.ErdosRenyi(600, 4800, 2),
	}
	var writebacks uint64
	for gname, g := range graphs {
		for _, dir := range []trace.Direction{trace.Pull, trace.Push} {
			addrs, writes := oracleStream(g, dir)
			for _, sets := range []int{1, 16, 64} {
				for _, ways := range []int{1, 2, 8, 16} {
					for _, lineSize := range []int{32, 64} {
						name := fmt.Sprintf("%s/%s/sets=%d/ways=%d/line=%d", gname, dir, sets, ways, lineSize)
						o := newLRUOracle(lineSize, sets, ways)
						for i, a := range addrs {
							o.access(a, writes[i])
						}
						writebacks += o.stats.Writebacks
						cfg := cachesim.Config{LineSize: lineSize, Sets: sets, Ways: ways, Policy: cachesim.LRU}
						opts := SimOptions{Direction: dir, Cache: cfg}
						if got := SimulateSpMVReference(g, opts).Cache; got != o.stats {
							t.Errorf("%s: reference %+v, oracle %+v", name, got, o.stats)
						}
						if got := SimulateSpMV(g, opts).Cache; got != o.stats {
							t.Errorf("%s: fast path %+v, oracle %+v", name, got, o.stats)
						}
					}
				}
			}
		}
	}
	if writebacks == 0 {
		t.Error("no configuration of the grid wrote back a dirty line; the streams do not contend the caches")
	}
}

// FuzzLRUVsOracle feeds arbitrary access streams to the oracle and to
// cachesim's LRU through both the scalar Access and the AccessBatch path,
// and requires the same per-access hits and the same final counters.
//
// cfgSel picks the geometry: 1..8 sets, 1..8 ways, 32- or 64-byte lines.
// data encodes the stream, 3 bytes per access: a 16-bit line index, then a
// byte whose low bit is the write flag and whose upper bits give the byte
// offset within the line, so the oracle's addr/LineSize is exercised.
func FuzzLRUVsOracle(f *testing.F) {
	f.Add(uint8(0x00), []byte{0, 0, 0})
	// One set, two ways: A B A C B. LRU evicts B for C, so B misses again.
	f.Add(uint8(0x24), []byte{0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 2, 0, 0, 1, 0})
	// One set, one way: a write miss, then a read that evicts it dirty.
	f.Add(uint8(0x20), []byte{0, 0, 1, 0, 1, 0})
	f.Add(uint8(0x05), []byte{
		0, 0, 0, 0, 0, 1, 0, 1, 0, 0xff, 0xff, 1, 0, 0, 0,
	})
	f.Add(uint8(0x2b), []byte{
		1, 2, 0x7e, 3, 4, 1, 5, 6, 0, 7, 8, 0x3f, 1, 2, 0, 9, 10, 0,
	})
	f.Add(uint8(0x1f), []byte{
		0x40, 0, 0, 0x40, 1, 0, 0x40, 2, 0, 0x40, 3, 1, 0x40, 0, 0, 0x40, 4, 1, 0x40, 1, 0,
	})

	f.Fuzz(func(t *testing.T, cfgSel uint8, data []byte) {
		cfg := cachesim.Config{
			LineSize: 32 << (cfgSel >> 5 & 1),
			Sets:     1 << (cfgSel & 0x3),
			Ways:     1 + int(cfgSel>>2&0x7),
			Policy:   cachesim.LRU,
		}
		n := len(data) / 3
		if n == 0 {
			return
		}
		addrs := make([]uint64, n)
		writes := make([]bool, n)
		for i := 0; i < n; i++ {
			line := uint64(data[3*i])<<8 | uint64(data[3*i+1])
			off := uint64(data[3*i+2]>>1) % uint64(cfg.LineSize)
			addrs[i] = line*uint64(cfg.LineSize) + off
			writes[i] = data[3*i+2]&1 == 1
		}

		o := newLRUOracle(cfg.LineSize, cfg.Sets, cfg.Ways)
		scalar, batched := cachesim.New(cfg), cachesim.New(cfg)
		hits := make([]bool, n)
		batched.AccessBatch(addrs, writes, hits)
		for i := 0; i < n; i++ {
			want := o.access(addrs[i], writes[i])
			if got := scalar.Access(addrs[i], writes[i]); got != want {
				t.Fatalf("cfg=%+v: access %d (addr %#x, write %v): Access hit=%v, oracle hit=%v",
					cfg, i, addrs[i], writes[i], got, want)
			}
			if hits[i] != want {
				t.Fatalf("cfg=%+v: access %d (addr %#x, write %v): AccessBatch hit=%v, oracle hit=%v",
					cfg, i, addrs[i], writes[i], hits[i], want)
			}
		}
		if got := scalar.Stats(); got != o.stats {
			t.Fatalf("cfg=%+v: Access counters %+v, oracle %+v", cfg, got, o.stats)
		}
		if got := batched.Stats(); got != o.stats {
			t.Fatalf("cfg=%+v: AccessBatch counters %+v, oracle %+v", cfg, got, o.stats)
		}
	})
}
