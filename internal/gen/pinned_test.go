package gen

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"
	"testing"

	"graphlocality/internal/graph"
)

// graphPin is the CRC32C of a graph's four topology arrays: the CSR
// offsets and edges, then the CSC offsets and edges.
type graphPin [4]uint32

// graphPins holds one pin per generated graph, by case name. The values
// were recorded from the per-draw R-MAT sampler, the binary-search Zipf
// sampler, the InducedSubgraph-based RemoveZeroDegree and the map-based
// preferential attachment; any rewrite of the generators must reproduce
// them.
var graphPins = map[string]graphPin{
	"ba/11x4":      {0x23a04398, 0x66eee656, 0xfe18ce59, 0x4c13b1fd},
	"ba/11x8":      {0x18f815d0, 0xb0995b78, 0xd9d75421, 0x1d0a4a4c},
	"ba/12x4":      {0x8722bbfd, 0x0e2590dd, 0x4c1e3fd1, 0xdedfc7a8},
	"ba/12x8":      {0x41555fce, 0x8537c5ad, 0xd72a42e7, 0xcbfe18c0},
	"ba/4x4":       {0x3889fe28, 0x7ac13ff4, 0x72514ef4, 0xfe138a63},
	"ba/4x8":       {0xea41ff77, 0x5f9f5a15, 0x7dc9b261, 0xf823920e},
	"ba/8x4":       {0x4dd4be31, 0xf33f5251, 0x3432f09c, 0x3ea8cba3},
	"ba/8x8":       {0xa6940a50, 0xd8694c0b, 0x07df72fa, 0xcd42efa0},
	"er/11x4":      {0x97b8f396, 0x488bd6b5, 0xee9f91a8, 0xcb34ca58},
	"er/11x8":      {0xa22c35c7, 0x6f9216a5, 0x5554050f, 0x3b1f83fe},
	"er/12x4":      {0xb5adb5a1, 0x281d4995, 0xf315a416, 0xe615dc09},
	"er/12x8":      {0x0b8ba979, 0xf09f18f0, 0xd59b6f40, 0x11979061},
	"er/4x4":       {0x4f807dda, 0xf1a5a5f5, 0xc725028c, 0xa1ffec09},
	"er/4x8":       {0x75757fa7, 0x33368489, 0x58ee3138, 0xa15e9ed0},
	"er/8x4":       {0x6a58ad1f, 0x36ccba46, 0x43a00aa1, 0xe05e7f7f},
	"er/8x8":       {0x41335b21, 0x1bf25f80, 0x1d56250e, 0xde2b0133},
	"rmat/default": {0xf1470f6e, 0xfe2aedee, 0xccc0bdfc, 0xf30cbf73},
	"social/11x4":  {0x15738a64, 0x33ded6c8, 0xd95f2a43, 0xa3c7aaf5},
	"social/11x8":  {0x7b59e7e0, 0x7433e081, 0xd80ad0e3, 0xd5d0b673},
	"social/12x4":  {0xfe1d72ad, 0xf8adecf2, 0xbd361e2c, 0x3250f877},
	"social/12x8":  {0x9319204c, 0xafd749bb, 0xacf51ae1, 0xbd629ac8},
	"social/4x4":   {0xee907432, 0x7b84d876, 0x34b06394, 0x4604e5f3},
	"social/4x8":   {0xe9adb3dd, 0x034c15ae, 0x73eae09b, 0xa25f756f},
	"social/8x4":   {0x9a0ea125, 0x1fe062be, 0x73947381, 0x4e954bfa},
	"social/8x8":   {0xc058d2a8, 0x0b9b838f, 0xaa4caf70, 0xa2e4aa59},
	"std/FrndS":    {0xbaf7ea9f, 0xd40147d2, 0x00dae335, 0x724c709b},
	"std/SKS":      {0xa5ac80dc, 0x0089a281, 0x3d3ce600, 0x1073b9c5},
	"std/TwtrS":    {0x245cb5c1, 0x0eabb7fa, 0xb04b3f34, 0xdb7c4f25},
	"std/UKS":      {0xbcd5a0f4, 0xb7f08ba4, 0x19365dfd, 0x03a0f124},
	"std/UnifS":    {0x3e721a55, 0x52a91224, 0x7a5889e3, 0xebc6b618},
	"std/WebS":     {0x11ad5504, 0x5e72336c, 0xdca795de, 0x4e976e34},
	"web/11x4":     {0x54417d98, 0xc697e042, 0x6b6ebaf2, 0xa941442c},
	"web/11x8":     {0x0aeec6c6, 0x20ec813b, 0x8fecdfeb, 0x67abc124},
	"web/12x4":     {0xe24947c9, 0xedd7e0bb, 0xc12a3ac9, 0x36efa3d6},
	"web/12x8":     {0xca2aeca8, 0x5f93b295, 0xfb45a297, 0x09e1fd87},
	"web/4x4":      {0x030a358b, 0x2b949224, 0xea891e3c, 0xd2cc4174},
	"web/4x8":      {0x7f9e1dfb, 0xcf1e1bf0, 0xc5eac7af, 0xa7173fec},
	"web/8x4":      {0xacab88e3, 0x5faab373, 0x86a70f5a, 0x436471ca},
	"web/8x8":      {0xede72926, 0x5f005331, 0xc449e5cb, 0x00ebb7c7},
	"web/nocrawl":  {0x963d3faf, 0x761625b9, 0xe192e834, 0xceee179a},
	"web/pool300":  {0x813e4cc9, 0x170d9ac4, 0xdbfce881, 0x54211a73},
}

// randomPins holds, per kind, one CRC folded over the pins of 200 small
// seeded graphs (randomCase).
var randomPins = map[string]uint32{
	"ba":     0x02e416e9,
	"er":     0x5c5fed08,
	"social": 0xb6768c6b,
	"web":    0x1806f739,
}

// zipfPins holds the CRC32C of the first zipfSamples samples per sampler.
var zipfPins = map[string]uint32{
	"1.1/4096": 0x18acfe4d,
	"1.3/64":   0x480ad645,
	"1.5/1":    0x4c884754,
	"2/3":      0x78230ef5,
}

const zipfSamples = 100000

var pinTable = crc32.MakeTable(crc32.Castagnoli)

// crcWords continues crc over the little-endian bytes of words.
func crcWords[T uint32 | uint64](crc uint32, words []T) uint32 {
	var w T
	size := binary.Size(w)
	buf := make([]byte, size*len(words))
	for i, x := range words {
		if size == 4 {
			binary.LittleEndian.PutUint32(buf[4*i:], uint32(x))
		} else {
			binary.LittleEndian.PutUint64(buf[8*i:], uint64(x))
		}
	}
	return crc32.Update(crc, pinTable, buf)
}

func pinOf(g *graph.Graph) graphPin {
	return graphPin{
		crcWords(0, g.OutOffsets()), crcWords(0, g.OutEdges()),
		crcWords(0, g.InOffsets()), crcWords(0, g.InEdges()),
	}
}

// pinnedGraphs builds every named case: Generate for each kind over a
// scale × edge-factor grid, the Standard suite's generators shrunk
// 16-fold (logV−4, and the ER edge count by the same factor), R-MAT
// without reciprocation or zero-degree removal, and the web generator with
// crawl interleaving off and with an explicit popularity pool.
func pinnedGraphs(t *testing.T) map[string]*graph.Graph {
	gs := map[string]*graph.Graph{}
	for _, kind := range Kinds {
		for _, scale := range []int{4, 8, 11, 12} {
			for _, ef := range []int{4, 8} {
				g, err := Generate(kind, scale, ef, uint64(scale*ef))
				if err != nil {
					t.Fatal(err)
				}
				gs[fmt.Sprintf("%s/%dx%d", kind, scale, ef)] = g
			}
		}
	}
	const shift = 4
	gs["std/TwtrS"] = SocialNetwork(15-shift, 16, 42)
	gs["std/FrndS"] = SocialNetwork(16-shift, 12, 7)
	gs["std/SKS"] = WebGraph(DefaultWebGraph(1<<(15-shift), 16, 9))
	gs["std/WebS"] = WebGraph(DefaultWebGraph(1<<(16-shift), 10, 3))
	gs["std/UKS"] = WebGraph(DefaultWebGraph(1<<(17-shift), 8, 5))
	gs["std/UnifS"] = ErdosRenyi(1<<(15-shift), 500000>>shift, 1)
	gs["rmat/default"] = RMAT(DefaultRMAT(12, 8, 3))
	noCrawl := DefaultWebGraph(1<<11, 8, 4)
	noCrawl.CrawlHosts = 0
	gs["web/nocrawl"] = WebGraph(noCrawl)
	pool := DefaultWebGraph(1<<11, 8, 6)
	pool.PopPool = 300
	gs["web/pool300"] = WebGraph(pool)
	return gs
}

// randomCase builds the i-th of 200 small seeded graphs of kind: 2^1 to
// 2^7 vertices at edge factors 1 to 9, which reach the tiny-graph corner
// cases (every vertex isolated, a single possible edge, k above |V|).
func randomCase(t *testing.T, kind string, i int) *graph.Graph {
	g, err := Generate(kind, 1+i%7, 1+i%9, uint64(7000+i))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// zipfCases lists the pinned samplers: the web generator's out-degree and
// popularity shapes, a steep exponent over three values, and the
// one-value degenerate sampler.
var zipfCases = []struct {
	s   float64
	max int
}{{1.3, 64}, {1.1, 4096}, {2.0, 3}, {1.5, 1}}

func zipfName(s float64, max int) string { return fmt.Sprintf("%g/%d", s, max) }

// TestGeneratorsPinned pins every generator bit for bit: all four arrays
// of the graphs of every kind and of the Standard suite's shapes, a CRC
// folded over 200 small graphs per kind, and the Zipf sample streams.
func TestGeneratorsPinned(t *testing.T) {
	gotGraphs := map[string]graphPin{}
	for name, g := range pinnedGraphs(t) {
		gotGraphs[name] = pinOf(g)
	}
	gotRandom := map[string]uint32{}
	for _, kind := range Kinds {
		var fold uint32
		for i := 0; i < 200; i++ {
			p := pinOf(randomCase(t, kind, i))
			fold = crcWords(fold, p[:])
		}
		gotRandom[kind] = fold
	}
	gotZipf := map[string]uint32{}
	for i, c := range zipfCases {
		z := NewZipf(NewRNG(uint64(11+i)), c.s, c.max)
		samples := make([]uint32, zipfSamples)
		for j := range samples {
			samples[j] = uint32(z.Next())
		}
		gotZipf[zipfName(c.s, c.max)] = crcWords(0, samples)
	}

	drift := false
	for name, got := range gotGraphs {
		if want, ok := graphPins[name]; !ok || got != want {
			t.Errorf("graph %s: got %#08x, want %#08x", name, got, want)
			drift = true
		}
	}
	for name, got := range gotRandom {
		if want, ok := randomPins[name]; !ok || got != want {
			t.Errorf("random %s: got %#08x, want %#08x", name, got, want)
			drift = true
		}
	}
	for name, got := range gotZipf {
		if want, ok := zipfPins[name]; !ok || got != want {
			t.Errorf("zipf %s: got %#08x, want %#08x", name, got, want)
			drift = true
		}
	}
	if drift {
		t.Logf("pins of this tree:\n%s", pinLiterals(gotGraphs, gotRandom, gotZipf))
	}
}

// pinLiterals renders the three pin maps as the Go literals that record
// them, in name order.
func pinLiterals(graphs map[string]graphPin, random, zipf map[string]uint32) string {
	keys := func(m map[string]uint32) []string {
		var ks []string
		for k := range m {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		return ks
	}
	var names []string
	for k := range graphs {
		names = append(names, k)
	}
	sort.Strings(names)
	s := "var graphPins = map[string]graphPin{\n"
	for _, k := range names {
		p := graphs[k]
		s += fmt.Sprintf("\t%q: {%#08x, %#08x, %#08x, %#08x},\n", k, p[0], p[1], p[2], p[3])
	}
	s += "}\n\nvar randomPins = map[string]uint32{\n"
	for _, k := range keys(random) {
		s += fmt.Sprintf("\t%q: %#08x,\n", k, random[k])
	}
	s += "}\n\nvar zipfPins = map[string]uint32{\n"
	for _, k := range keys(zipf) {
		s += fmt.Sprintf("\t%q: %#08x,\n", k, zipf[k])
	}
	return s + "}\n"
}
