package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"testing"

	"graphlocality/internal/cachesim"
	"graphlocality/internal/gen"
	"graphlocality/internal/graph"
	"graphlocality/internal/trace"
)

// The differential walls compare SimulateSpMV with SimulateSpMVReference,
// and both drive the same cachesim.Cache, so a change to the cache model
// moves both sides alike and passes them. TestSimCountersPinned closes that
// gap: it pins the counters themselves, recorded from the per-way-loop
// cache model, and any rewrite of cachesim must reproduce them.

// simPin is the fingerprint of one simulation: the cache miss count, kept
// readable, and the CRC32C of every pinned counter (simPinWords).
type simPin struct {
	misses uint64
	crc    uint32
}

// simPinSets are the pinned option sets. Each builds the options for graph
// g; the zero Cache is SimOptions' default, the ScaledL3 DRRIP cache.
var simPinSets = []struct {
	name string
	opts func(g *graph.Graph) SimOptions
}{
	{"drrip", func(g *graph.Graph) SimOptions { return SimOptions{} }},
	{"srrip", func(g *graph.Graph) SimOptions { return SimOptions{Cache: scaledL3(g, cachesim.SRRIP)} }},
	{"brrip", func(g *graph.Graph) SimOptions { return SimOptions{Cache: scaledL3(g, cachesim.BRRIP)} }},
	{"lru", func(g *graph.Graph) SimOptions { return SimOptions{Cache: scaledL3(g, cachesim.LRU)} }},
	{"drrip+prefetch", func(g *graph.Graph) SimOptions {
		c := scaledL3(g, cachesim.DRRIP)
		c.NextLinePrefetch = true
		return SimOptions{Cache: c}
	}},
	{"ways=11", func(g *graph.Graph) SimOptions {
		return SimOptions{Cache: cachesim.Config{LineSize: 64, Sets: 64, Ways: 11, Policy: cachesim.DRRIP}}
	}},
	{"ways=16", func(g *graph.Graph) SimOptions {
		return SimOptions{Cache: cachesim.Config{LineSize: 64, Sets: 16, Ways: 16, Policy: cachesim.DRRIP}, SnapshotEvery: 3000}
	}},
	{"threads=4+tlb", func(g *graph.Graph) SimOptions {
		tlb := cachesim.ScaledTLB(trace.NewLayout(g).FootprintBytes(), 0.10)
		return SimOptions{Threads: 4, TLB: &tlb, SnapshotEvery: 5000}
	}},
	{"push", func(g *graph.Graph) SimOptions { return SimOptions{Direction: trace.Push} }},
}

// simPins holds, per option set, one pin per pinnedStandard graph, in its
// order.
var simPins = map[string][6]simPin{
	"drrip":          {{7442, 0x4e469927}, {18124, 0x51c41f70}, {15947, 0x14b96125}, {25077, 0x9ad50c26}, {42868, 0xd75f8aa8}, {20937, 0xfa4ebf4a}},
	"srrip":          {{7202, 0x139a07b4}, {17832, 0x8823f7e3}, {16614, 0xffcf94d8}, {24902, 0xdfe442ab}, {42445, 0xd3c139c6}, {20747, 0x1ee64c8b}},
	"brrip":          {{7470, 0xb584e931}, {18138, 0x10b4d1ba}, {15907, 0x02c2cf5f}, {27201, 0x705b1717}, {48811, 0xe1f84a0f}, {23846, 0xbc29075a}},
	"lru":            {{7256, 0x1b351a88}, {18358, 0xb1b2d7eb}, {18700, 0x652b14a1}, {25977, 0xc206a941}, {42842, 0xa99f065f}, {19875, 0x05c874f8}},
	"drrip+prefetch": {{6393, 0xb716d8ba}, {16203, 0x4e3fcc82}, {15066, 0xa3bc8450}, {23330, 0x8a4b24d4}, {40188, 0x88e762ad}, {19983, 0x175993b3}},
	"ways=11":        {{2463, 0xc33231a9}, {4878, 0xb6309143}, {2416, 0xae6957e7}, {5058, 0x7de9cc86}, {13751, 0x3b58a3a8}, {3029, 0xe4e43ac5}},
	"ways=16":        {{3562, 0x676ef839}, {10586, 0x73e9e47e}, {6927, 0xce4ba037}, {14412, 0x272dc197}, {27567, 0xc0717471}, {8539, 0x2584a290}},
	"threads=4+tlb":  {{7767, 0xccc9276c}, {18611, 0x477ea3dd}, {16118, 0x0dd13b32}, {25344, 0x645db8a5}, {43772, 0xbc3e9e4b}, {21255, 0xb09d25cc}},
	"push":           {{8147, 0x4989d856}, {19997, 0xff3dae8e}, {14052, 0xe23d73f1}, {22930, 0x52606e35}, {39534, 0x1a53fdfc}, {21360, 0xaf42f04b}},
}

func scaledL3(g *graph.Graph, p cachesim.Policy) cachesim.Config {
	c := cachesim.ScaledL3(g.NumVertices(), cachesim.DefaultVertexCacheFraction)
	c.Policy = p
	return c
}

// pinnedStandard builds the Standard suite's generators shrunk 16-fold
// (logV−4, and the ER edge count by the same factor).
func pinnedStandard() []*graph.Graph {
	const shift = 4
	return []*graph.Graph{
		gen.SocialNetwork(15-shift, 16, 42),
		gen.SocialNetwork(16-shift, 12, 7),
		gen.WebGraph(gen.DefaultWebGraph(1<<(15-shift), 16, 9)),
		gen.WebGraph(gen.DefaultWebGraph(1<<(16-shift), 10, 3)),
		gen.WebGraph(gen.DefaultWebGraph(1<<(17-shift), 8, 5)),
		gen.ErdosRenyi(1<<(15-shift), 500000>>shift, 1),
	}
}

// simPinWords lists the pinned counters of res: the eight cache counters,
// the eight TLB counters, the ECS average's bits and the snapshot count.
func simPinWords(res SimResult) []uint64 {
	var words []uint64
	for _, s := range []cachesim.Stats{res.Cache, res.TLB} {
		words = append(words, s.Accesses, s.Hits, s.Misses, s.ReadMiss,
			s.WriteMiss, s.Evictions, s.Writebacks, s.Prefetches)
	}
	return append(words, math.Float64bits(res.ECS), uint64(res.Snapshots))
}

func simPinOf(res SimResult) simPin {
	words := simPinWords(res)
	buf := make([]byte, 8*len(words))
	for i, w := range words {
		binary.LittleEndian.PutUint64(buf[8*i:], w)
	}
	return simPin{misses: res.Cache.Misses, crc: crc32.Checksum(buf, crc32.MakeTable(crc32.Castagnoli))}
}

// TestSimCountersPinned pins every cache and TLB counter, the ECS average
// and the snapshot count of both simulate paths under nine option sets on
// the Standard generators at logV−4.
func TestSimCountersPinned(t *testing.T) {
	graphs := pinnedStandard()
	for _, set := range simPinSets {
		t.Run(set.name, func(t *testing.T) {
			var got [6]simPin
			for i, g := range graphs {
				opts := set.opts(g)
				ref, fast := SimulateSpMVReference(g, opts), SimulateSpMV(g, opts)
				if fw, rw := simPinWords(fast), simPinWords(ref); !slices.Equal(fw, rw) {
					t.Fatalf("graph %d: fast path counters %v, reference %v", i, fw, rw)
				}
				// A pin covers only what the run exercised.
				if (opts.SnapshotEvery > 0 && ref.Snapshots == 0) || (opts.TLB != nil && ref.TLB.Misses == 0) ||
					(opts.Cache.NextLinePrefetch && ref.Cache.Prefetches == 0) || ref.Cache.Writebacks == 0 {
					t.Fatalf("graph %d: counters %v leave a pinned feature unexercised", i, simPinWords(ref))
				}
				got[i] = simPinOf(ref)
			}
			want, ok := simPins[set.name]
			if !ok {
				t.Fatalf("no pins recorded for %s; got %s", set.name, simPinLiteral(got))
			}
			if got != want {
				t.Errorf("%s drifted:\n got  %s\n want %s", set.name, simPinLiteral(got), simPinLiteral(want))
			}
		})
	}
}

// simPinLiteral renders pins as the simPins entry that records them.
func simPinLiteral(pins [6]simPin) string {
	s := "{"
	for i, p := range pins {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("{%d, %#08x}", p.misses, p.crc)
	}
	return s + "}"
}
