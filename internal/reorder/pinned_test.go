package reorder

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"testing"

	"graphlocality/internal/gen"
	"graphlocality/internal/graph"
)

// heavyPin is the fingerprint of one pinned ordering run: the CRC32C of the
// permutation and of the run's statistic (SlashBurn's iteration count or
// Rabbit-Order's community sizes; 0 for GOrder and RCM).
type heavyPin struct{ perm, stat uint32 }

// heavyPins holds, per spec, one pin per pinnedStandard graph (in its
// order) and one CRC folded over every pinnedRandom graph. The values were
// recorded from the map-based Rabbit-Order, the full-scan SlashBurn, the
// per-change GOrder, the copy-and-sort-every-list RCM and Brew over the
// map-based community detectors; any rewrite of those kernels must
// reproduce them. The go:hubcap=sqrt pins were recorded from the one-walk
// GOrder, whose plain pins are the per-change ones; on WebS, UKS and
// UnifS no vertex is over the cap, so they equal go's.
var heavyPins = map[string]struct {
	std    [6]heavyPin
	random uint32
}{
	"sb":                 {std: [6]heavyPin{{0x452c5af3, 0xc50119d2}, {0x70e1845e, 0x01440ba0}, {0xd9b8deef, 0xb8034230}, {0xccaed81c, 0x076461b1}, {0xd03f0913, 0xc32173c3}, {0x5746e81d, 0xd6611f2b}}, random: 0xda4ccf0f},
	"sb++":               {std: [6]heavyPin{{0xf544cf53, 0x33457a34}, {0x0a5af757, 0x2a45c2fe}, {0x3b031b75, 0x2a45c2fe}, {0xd8546a40, 0xf7006846}, {0x572faf35, 0xf7006846}, {0xacaf7f9d, 0xf7006846}}, random: 0x6333dcf4},
	"sb:cachebytes=4096": {std: [6]heavyPin{{0x452c5af3, 0xc50119d2}, {0x70e1845e, 0x01440ba0}, {0x624892ed, 0x7a663a53}, {0x660a16ec, 0xbe232821}, {0xd99bcfe8, 0xee00d08c}, {0x6cee9291, 0x7a663a53}}, random: 0xda4ccf0f},
	"ro":                 {std: [6]heavyPin{{0x7297b410, 0x877ddaaf}, {0x610e2ed8, 0x4f3d9422}, {0xd92b1fca, 0xcf4e1b47}, {0x595f8a3e, 0x4f8fc41b}, {0x4e8f4d43, 0x2d0bd9b9}, {0x6037d6a6, 0x6d348a36}}, random: 0x717273c7},
	"ro:edr=2-40":        {std: [6]heavyPin{{0x6b0c3c10, 0xcf9a0c9e}, {0x9a664689, 0xdec71a04}, {0xb96814c6, 0x04fc27ec}, {0x7f207b99, 0xb6acc806}, {0x4d82da4a, 0x7f46fe44}, {0x46e80d95, 0xa5ffb220}}, random: 0x154430ef},
	"ro:cachebytes=512":  {std: [6]heavyPin{{0xf7a18b53, 0xa13b74d7}, {0x2b75b09f, 0xd3ba644e}, {0x0a16e8d0, 0x464fc209}, {0xe7b7eb36, 0x79b2b6ea}, {0xd0efbae3, 0x40a1b9c5}, {0x932dfd62, 0x54fe3d7e}}, random: 0x717273c7},
	"go":                 {std: [6]heavyPin{{0xd80c9867, 0x00000000}, {0x612a97a1, 0x00000000}, {0xebb36ec6, 0x00000000}, {0xeddfefb4, 0x00000000}, {0x8dfc5420, 0x00000000}, {0x446b6f2c, 0x00000000}}, random: 0xef727f86},
	"go:window=1":        {std: [6]heavyPin{{0xaf82aa8d, 0x00000000}, {0x478f1333, 0x00000000}, {0x5b44835f, 0x00000000}, {0x1bb41be8, 0x00000000}, {0xb9d8dc7d, 0x00000000}, {0xd23c9137, 0x00000000}}, random: 0xa40e2826},
	"go:window=8":        {std: [6]heavyPin{{0xfd9c2410, 0x00000000}, {0xe64fe8f3, 0x00000000}, {0x0c77a01d, 0x00000000}, {0xd70159c8, 0x00000000}, {0xbcc325a0, 0x00000000}, {0x9f458810, 0x00000000}}, random: 0x6e1b0251},
	"go:hubcap=sqrt":     {std: [6]heavyPin{{0x404c9f14, 0x00000000}, {0xb71ac474, 0x00000000}, {0xdd3d4606, 0x00000000}, {0xeddfefb4, 0x00000000}, {0x8dfc5420, 0x00000000}, {0x446b6f2c, 0x00000000}}, random: 0x3848d755},
	"rcm":                {std: [6]heavyPin{{0xda8d69a8, 0x00000000}, {0x5c8b2c2a, 0x00000000}, {0x0b671945, 0x00000000}, {0x429b6386, 0x00000000}, {0x4870eec2, 0x00000000}, {0xfa731d4c, 0x00000000}}, random: 0x7a753227},
	"brew":               {std: [6]heavyPin{{0x96dfd854, 0x00000000}, {0x3ad70faf, 0x00000000}, {0x51be6689, 0x00000000}, {0x7f259314, 0x00000000}, {0x8f1f62ce, 0x00000000}, {0x4aae53db, 0x00000000}}, random: 0x7083440d},
	"brew:resolution=2":  {std: [6]heavyPin{{0xd6fe50bb, 0x00000000}, {0xfadf74a7, 0x00000000}, {0x2a705abd, 0x00000000}, {0xd2b44bbb, 0x00000000}, {0xf6266626, 0x00000000}, {0xf81c64fe, 0x00000000}}, random: 0x0be026cc},
	"brew:detect=lp":     {std: [6]heavyPin{{0x0ad4e998, 0x00000000}, {0x459761e3, 0x00000000}, {0x748331b7, 0x00000000}, {0xe48bf797, 0x00000000}, {0x0e7586fe, 0x00000000}, {0xd6d4dd51, 0x00000000}}, random: 0xb1f31d01},
}

// pinnedStandard builds the Standard suite's generators shrunk 16-fold
// (logV−4, and the ER edge count by the same factor): the shapes the
// benchmark's pipeline workload reorders with the heavy orderings.
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

// pinnedRandom builds 200 small seeded graphs: 100 Erdős–Rényi graphs of
// 1 to 160 vertices at mean degrees 0 to 6, and 100 social networks of 2^2
// to 2^7 vertices. Their isolated vertices, duplicate edges, self-loops
// and tiny components reach the corner cases the Standard shapes do not.
func pinnedRandom() []*graph.Graph {
	var gs []*graph.Graph
	for i := 0; i < 100; i++ {
		n := uint32(1 + (i*37)%160)
		gs = append(gs, gen.ErdosRenyi(n, int(n)*(i%7), uint64(i+1)))
	}
	for i := 0; i < 100; i++ {
		gs = append(gs, gen.SocialNetwork(2+i%6, 1+i%9, uint64(1000+i)))
	}
	return gs
}

// heavyRun reorders g with a fresh instance of spec and fingerprints the
// result.
func heavyRun(t *testing.T, spec string, g *graph.Graph) heavyPin {
	t.Helper()
	alg := MustNew(spec)
	perm := Perm(alg, g)
	if err := perm.Validate(); err != nil {
		t.Fatalf("%s: %v", spec, err)
	}
	var stat []uint32
	switch a := alg.(type) {
	case *SlashBurn:
		stat = []uint32{uint32(a.Iterations())}
	case *RabbitOrder:
		stat = append([]uint32{uint32(len(a.CommunitySizes()))}, a.CommunitySizes()...)
	}
	return heavyPin{perm: crcWords(0, perm), stat: crcWords(0, stat)}
}

var pinTable = crc32.MakeTable(crc32.Castagnoli)

// crcWords continues crc over the little-endian bytes of words.
func crcWords(crc uint32, words []uint32) uint32 {
	buf := make([]byte, 4*len(words))
	for i, w := range words {
		binary.LittleEndian.PutUint32(buf[4*i:], w)
	}
	return crc32.Update(crc, pinTable, buf)
}

// TestHeavyPermutationsPinned pins SlashBurn, Rabbit-Order, GOrder, RCM
// and Brew bit for bit: every permutation, SlashBurn iteration count and
// Rabbit-Order community-size list under fourteen option sets, on the
// benchmark's heavy shapes and on 200 small random graphs.
func TestHeavyPermutationsPinned(t *testing.T) {
	std, random := pinnedStandard(), pinnedRandom()
	specs := []string{"sb", "sb++", "sb:cachebytes=4096", "ro", "ro:edr=2-40",
		"ro:cachebytes=512", "go", "go:window=1", "go:window=8", "go:hubcap=sqrt", "rcm",
		"brew", "brew:resolution=2", "brew:detect=lp"}
	for _, spec := range specs {
		t.Run(spec, func(t *testing.T) {
			t.Parallel()
			var got [6]heavyPin
			for i, g := range std {
				got[i] = heavyRun(t, spec, g)
			}
			var fold uint32
			for _, g := range random {
				p := heavyRun(t, spec, g)
				fold = crcWords(fold, []uint32{p.perm, p.stat})
			}
			want, ok := heavyPins[spec]
			if !ok {
				t.Fatalf("no pins recorded for %s; got %s", spec, pinLiteral(got, fold))
			}
			if got != want.std || fold != want.random {
				t.Errorf("%s drifted:\n got  %s\n want %s", spec, pinLiteral(got, fold), pinLiteral(want.std, want.random))
			}
		})
	}
}

// pinLiteral renders pins as the heavyPins entry that records them.
func pinLiteral(std [6]heavyPin, random uint32) string {
	s := "{std: [6]heavyPin{"
	for i, p := range std {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("{%#08x, %#08x}", p.perm, p.stat)
	}
	return s + fmt.Sprintf("}, random: %#08x}", random)
}

// communityPins holds, per detector, the CRC32C of Membership followed by
// Count for each pinnedStandard graph, and one CRC folded over every
// pinnedRandom graph. The values were recorded from the map-based Louvain
// and label-propagation detectors.
var communityPins = map[string]struct {
	std    [6]uint32
	random uint32
}{
	"louvain":              {std: [6]uint32{0x5e707815, 0xf245f168, 0xe45f1ad5, 0x93d2b9bc, 0xb0750473, 0x398d124d}, random: 0x5fa3703e},
	"louvain:resolution=2": {std: [6]uint32{0xfaf56aae, 0xdc98d895, 0xb6ea2c0f, 0xbf149276, 0x37d7c10e, 0xd4e9891d}, random: 0x7a463821},
	"lp":                   {std: [6]uint32{0x951304b3, 0x69e5738a, 0xa0ae741d, 0xd4f5ab43, 0x857d1c29, 0x15c451cc}, random: 0x846ab77f},
}

// communityDetectors names the detector runs TestCommunityDetectionPinned
// fingerprints, each at Brew's default seed.
var communityDetectors = map[string]func(*graph.Graph) (Communities, error){
	"louvain": func(g *graph.Graph) (Communities, error) {
		return DetectLouvain(context.Background(), g, 1, 1, 0)
	},
	"louvain:resolution=2": func(g *graph.Graph) (Communities, error) {
		return DetectLouvain(context.Background(), g, 2, 1, 0)
	},
	"lp": func(g *graph.Graph) (Communities, error) {
		return DetectLabelProp(context.Background(), g, 1, 0)
	},
}

// TestCommunityDetectionPinned pins the Louvain and label-propagation
// partitions bit for bit, on the benchmark's heavy shapes and on 200 small
// random graphs.
func TestCommunityDetectionPinned(t *testing.T) {
	std, random := pinnedStandard(), pinnedRandom()
	for name, detect := range communityDetectors {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			run := func(g *graph.Graph) uint32 {
				c, err := detect(g)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				return crcWords(crcWords(0, c.Membership), []uint32{uint32(c.Count)})
			}
			var got [6]uint32
			for i, g := range std {
				got[i] = run(g)
			}
			var fold uint32
			for _, g := range random {
				fold = crcWords(fold, []uint32{run(g)})
			}
			want, ok := communityPins[name]
			if !ok {
				t.Fatalf("no pins recorded for %s; got %s", name, communityLiteral(got, fold))
			}
			if got != want.std || fold != want.random {
				t.Errorf("%s drifted:\n got  %s\n want %s", name, communityLiteral(got, fold), communityLiteral(want.std, want.random))
			}
		})
	}
}

// communityLiteral renders pins as the communityPins entry that records
// them.
func communityLiteral(std [6]uint32, random uint32) string {
	return fmt.Sprintf("{std: [6]uint32{%#08x, %#08x, %#08x, %#08x, %#08x, %#08x}, random: %#08x}",
		std[0], std[1], std[2], std[3], std[4], std[5], random)
}
