package trace

import (
	"fmt"
	"path/filepath"
	"testing"

	"graphlocality/internal/gen"
	"graphlocality/internal/graph"
)

// Stream-equality tests: concatenating the blocks Generate delivers must
// reproduce, access for access and column for column, the stream the
// scalar driver Run emits for the same Stream. These are the other half of
// the bit-exactness contract — the differential suite in core compares
// end-to-end SimResults, these compare the raw streams so a generator bug
// is pinned to the generator.

func testGraph() *graph.Graph { return gen.SocialNetwork(8, 8, 5) }

// blockSizes cuts blocks tiny, odd, misaligned with the per-vertex
// pattern, and at the default — block cuts must never change content.
var blockSizes = []int{1, 2, 3, 7, 17, 100, 101, 0}

func collectRun(g *graph.Graph, s Stream) []Access {
	var out []Access
	Run(g, NewLayout(g), s, func(a Access) bool { out = append(out, a); return true })
	return out
}

func withThreads(s Stream, threads, interval int) Stream {
	s.Threads, s.Interval = threads, interval
	return s
}

// checkStream generates s over topo with and without records and compares
// every column of every block against want, the scalar stream of a graph
// with topo's dimensions.
// Only the last block may be short, and each block's EdgeReads must count
// its own edges-array reads.
func checkStream(t *testing.T, name string, topo graph.Topology, s Stream, bs int, want []Access) {
	t.Helper()
	l := NewLayout(topo)
	size := bs
	if size < 1 {
		size = DefaultBatchSize
	}
	for _, records := range []bool{false, true} {
		name := fmt.Sprintf("%s/bs=%d/records=%v", name, bs, records)
		pos, short := 0, false
		done := Generate(topo, l, s, bs, records, func(b *Block) bool {
			n := len(b.Addrs)
			if short || n == 0 || n > size {
				t.Fatalf("%s: block of %d accesses after a short block=%v (size %d)", name, n, short, size)
			}
			short = n < size
			if len(b.Writes) != n {
				t.Fatalf("%s: %d write flags for %d addresses", name, len(b.Writes), n)
			}
			if records && (len(b.Kinds) != n || len(b.Vertices) != n || len(b.Dests) != n) {
				t.Fatalf("%s: record columns of %d/%d/%d for %d accesses", name, len(b.Kinds), len(b.Vertices), len(b.Dests), n)
			}
			if !records && (b.Kinds != nil || b.Vertices != nil || b.Dests != nil) {
				t.Fatalf("%s: record columns filled without records", name)
			}
			if pos+n > len(want) {
				t.Fatalf("%s: stream longer than %d accesses", name, len(want))
			}
			edgeReads := 0
			for i := 0; i < n; i++ {
				w := want[pos+i]
				if b.Addrs[i] != w.Addr || b.Writes[i] != w.Write {
					t.Fatalf("%s: access %d = {%#x %v}, want %+v", name, pos+i, b.Addrs[i], b.Writes[i], w)
				}
				if records && b.Access(i) != w {
					t.Fatalf("%s: access %d = %+v, want %+v", name, pos+i, b.Access(i), w)
				}
				if w.Kind == KindEdges {
					edgeReads++
				}
			}
			if b.EdgeReads != edgeReads {
				t.Fatalf("%s: block at %d has EdgeReads %d, want %d", name, pos, b.EdgeReads, edgeReads)
			}
			pos += n
			return true
		})
		if !done {
			t.Fatalf("%s: Generate reported an early stop", name)
		}
		if pos != len(want) {
			t.Fatalf("%s: %d accesses, want %d", name, pos, len(want))
		}
	}
}

// TestStreamGenerateIntoOwnedBlocks feeds GenerateInto caller-owned
// blocks of cycling sizes, some with records and some without, each
// handed over dirty from an earlier use, and keeps every block it gets
// back: the kept blocks, concatenated, must be the scalar stream, which
// they can only be if GenerateInto never touched a block after handing
// it over. A nil block from next stops the stream.
func TestStreamGenerateIntoOwnedBlocks(t *testing.T) {
	g := testGraph()
	s := withThreads(Whole(g, Pull), 3, 37)
	want := collectRun(g, s)
	sizes := []int{1, 5, 64, 3, 100}
	var kept []*Block
	next := func() *Block {
		i := len(kept)
		b := NewBlock(sizes[i%len(sizes)], i%2 == 0)
		for j := range b.Addrs {
			b.Addrs[j], b.Writes[j] = ^uint64(0), true
		}
		b.EdgeReads = 99
		return b
	}
	if !GenerateInto(g, NewLayout(g), s, next, func(b *Block) bool {
		kept = append(kept, b)
		return true
	}) {
		t.Fatal("GenerateInto reported an early stop")
	}
	pos := 0
	for k, b := range kept {
		edgeReads := 0
		for i := range b.Addrs {
			w := want[pos+i]
			if b.Addrs[i] != w.Addr || b.Writes[i] != w.Write || (b.Kinds != nil && b.Access(i) != w) {
				t.Fatalf("block %d access %d = {%#x %v}, want %+v", k, i, b.Addrs[i], b.Writes[i], w)
			}
			if w.Kind == KindEdges {
				edgeReads++
			}
		}
		if b.EdgeReads != edgeReads {
			t.Fatalf("block %d: EdgeReads %d, want %d", k, b.EdgeReads, edgeReads)
		}
		pos += len(b.Addrs)
	}
	if pos != len(want) {
		t.Fatalf("%d accesses, want %d", pos, len(want))
	}

	blocks := 0
	stopAfter := func() *Block {
		if blocks == 3 {
			return nil
		}
		blocks++
		return NewBlock(10, false)
	}
	if GenerateInto(g, NewLayout(g), s, stopAfter, func(*Block) bool { return true }) {
		t.Error("GenerateInto ran to completion after next returned nil")
	}
}

func TestStreamMatchesScalar(t *testing.T) {
	g := testGraph()
	for _, dir := range []Direction{Pull, Push, PushRead} {
		s := Whole(g, dir)
		want := collectRun(g, s)
		if uint64(len(want)) != CountAccesses(g) {
			t.Fatalf("%s: scalar stream has %d accesses, want %d", dir, len(want), CountAccesses(g))
		}
		for _, bs := range blockSizes {
			checkStream(t, dir.String(), g, s, bs, want)
		}
	}
}

// TestStreamSubRanges checks that a vertex range yields exactly the
// scalar sub-stream, and that the streams of a partition of [0, |V|)
// concatenate to the whole stream.
func TestStreamSubRanges(t *testing.T) {
	g := testGraph()
	n := g.NumVertices()
	for _, dir := range []Direction{Pull, Push, PushRead} {
		for _, r := range []graph.Range{{Lo: 10, Hi: 200}, {Lo: 0, Hi: 1}, {Lo: n - 1, Hi: n}, {Lo: 5, Hi: 5}, {Lo: 9, Hi: 3}} {
			s := Stream{Dir: dir, Range: r}
			want := collectRun(g, s)
			for _, bs := range []int{1, 3, 64, 0} {
				checkStream(t, fmt.Sprintf("%s/%v", dir, r), g, s, bs, want)
			}
			// A sub-range interleaved across threads clips each thread's
			// partition to the range.
			for _, threads := range []int{2, 5} {
				ts := withThreads(s, threads, 13)
				checkStream(t, fmt.Sprintf("%s/%v/t=%d", dir, r, threads), g, ts, 50, collectRun(g, ts))
			}
		}
		var cat []Access
		for _, r := range g.PartitionEdgeBalanced(dir == Pull, 7) {
			cat = append(cat, collectRun(g, Stream{Dir: dir, Range: r})...)
		}
		whole := collectRun(g, Whole(g, dir))
		if len(cat) != len(whole) {
			t.Fatalf("%s: partition streams hold %d accesses, want %d", dir, len(cat), len(whole))
		}
		for i := range whole {
			if cat[i] != whole[i] {
				t.Fatalf("%s: concatenated partition streams differ at %d: %+v, want %+v", dir, i, cat[i], whole[i])
			}
		}
	}
}

// naiveInterleave builds the §V-B interleaved stream the long way, apart
// from the shared interleaver: each thread's partition stream in full,
// then slices of interval accesses taken round-robin.
func naiveInterleave(g *graph.Graph, dir Direction, threads, interval int) []Access {
	var logs [][]Access
	for _, r := range g.PartitionEdgeBalanced(dir == Pull, max(threads, 1)) {
		logs = append(logs, collectRun(g, Stream{Dir: dir, Range: r}))
	}
	interval = max(interval, 1)
	var out []Access
	for left := true; left; {
		left = false
		for i, lg := range logs {
			k := min(interval, len(lg))
			out = append(out, lg[:k]...)
			logs[i] = lg[k:]
			left = left || len(logs[i]) > 0
		}
	}
	return out
}

func TestStreamThreadsInterval(t *testing.T) {
	g := testGraph()
	for _, dir := range []Direction{Pull, Push, PushRead} {
		for _, threads := range []int{0, 1, 3, 4} {
			for _, interval := range []int{0, 1, 37, 1024} {
				s := withThreads(Whole(g, dir), threads, interval)
				want := collectRun(g, s)
				assertSameStream(t, fmt.Sprintf("%s/t=%d/iv=%d/naive", dir, threads, interval),
					naiveInterleave(g, dir, threads, interval), want)
				for _, bs := range []int{1, 17, 0} {
					checkStream(t, fmt.Sprintf("%s/t=%d/iv=%d", dir, threads, interval), g, s, bs, want)
				}
			}
		}
	}
}

// TestReplayBatchedMatchesReplayWithThread checks that the block Replay,
// flattened, is the access-by-access round-robin over the logs: each live
// log gives interval accesses per turn.
func TestReplayBatchedMatchesReplayWithThread(t *testing.T) {
	g := testGraph()
	l := NewLayout(g)
	logs := CollectLogs(g, l, Pull, 3)
	for _, interval := range []int{1, 100, 1 << 20} {
		var want []Access
		pos := make([]int, len(logs))
		for live := true; live; {
			live = false
			for i, lg := range logs {
				end := min(pos[i]+interval, len(lg.Accesses))
				want = append(want, lg.Accesses[pos[i]:end]...)
				pos[i] = end
				live = live || end < len(lg.Accesses)
			}
		}
		var got []Access
		Replay(logs, interval, func(b *Block) {
			for i := range b.Addrs {
				got = append(got, b.Access(i))
			}
		})
		if len(want) != len(got) {
			t.Fatalf("iv=%d: %d steps, want %d", interval, len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("iv=%d: step %d = %+v, want %+v", interval, i, got[i], want[i])
			}
		}
	}
}

// TestStreamSegmentedTopology checks that a segment-backed Topology
// generates the in-RAM scalar stream exactly, at segment sizes from one
// vertex to the whole graph.
func TestStreamSegmentedTopology(t *testing.T) {
	g := testGraph()
	for _, segVerts := range []int{1, 37, int(g.NumVertices()) + 1} {
		path := filepath.Join(t.TempDir(), "g.segcsr")
		if _, err := graph.WriteSegmented(g, path, graph.SegmentedOptions{SegmentVertices: segVerts}); err != nil {
			t.Fatal(err)
		}
		sg, err := graph.OpenSegmented(path, graph.SegmentedOptions{CacheBytes: 4096})
		if err != nil {
			t.Fatal(err)
		}
		for _, dir := range []Direction{Pull, Push, PushRead} {
			for _, s := range []Stream{Whole(g, dir), {Dir: dir, Range: graph.Range{Lo: 10, Hi: 200}}, withThreads(Whole(g, dir), 3, 37)} {
				want := collectRun(g, s)
				for _, bs := range []int{7, 0} {
					checkStream(t, fmt.Sprintf("seg=%d/%s/%+v", segVerts, dir, s), sg, s, bs, want)
				}
			}
		}
		if err := sg.Err(); err != nil {
			t.Fatalf("seg=%d: SegGraph latched error: %v", segVerts, err)
		}
		sg.Close()
	}
}

// FuzzStreamVsScalar fuzzes the graph, direction, threads, interval,
// block size and vertex range, and checks Generate against Run.
func FuzzStreamVsScalar(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(1), uint16(1024), uint16(0), uint16(0), uint16(0xffff))
	f.Add(uint64(7), uint8(1), uint8(3), uint16(1), uint16(1), uint16(2), uint16(40))
	f.Add(uint64(42), uint8(2), uint8(4), uint16(37), uint16(17), uint16(0), uint16(0xffff))
	f.Fuzz(func(t *testing.T, seed uint64, dir, threads uint8, interval, blockSize, lo, hi uint16) {
		n := uint32(seed%97) + 1
		g := gen.ErdosRenyi(n, int(seed/97%400), seed)
		s := Stream{
			Dir:      Direction(dir % 3),
			Range:    graph.Range{Lo: min(uint32(lo), n), Hi: min(uint32(hi), n)},
			Threads:  int(threads % 9),
			Interval: int(interval % 2000),
		}
		checkStream(t, fmt.Sprintf("%+v", s), g, s, int(blockSize%300), collectRun(g, s))
	})
}

// The bench-facing adapters must hand over the same stream in their own
// shapes.

func collectScalar(g *graph.Graph, dir Direction) []Access {
	return collectRun(g, Whole(g, dir))
}

func assertSameStream(t *testing.T, name string, want, got []Access) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d accesses, want %d", name, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: access %d = %+v, want %+v", name, i, got[i], want[i])
		}
	}
}

func TestRunBatchedMatchesRun(t *testing.T) {
	g := testGraph()
	l := NewLayout(g)
	for _, dir := range []Direction{Pull, Push, PushRead} {
		want := collectScalar(g, dir)
		// Block sizes that are tiny, misaligned with the per-vertex
		// pattern, and the default — block cuts must never change content.
		for _, bs := range []int{1, 3, 7, 100, 0} {
			var got []Access
			done := RunBatched(g, l, dir, bs, func(block []Access) bool {
				got = append(got, block...)
				return true
			})
			if !done {
				t.Fatalf("%s/bs=%d: RunBatched reported early stop", dir, bs)
			}
			assertSameStream(t, fmt.Sprintf("%s/bs=%d", dir, bs), want, got)
		}
	}
}

func TestRunBatchedEarlyStop(t *testing.T) {
	g := testGraph()
	l := NewLayout(g)
	blocks := 0
	done := RunBatched(g, l, Pull, 50, func(block []Access) bool {
		blocks++
		return blocks < 3
	})
	if done {
		t.Fatal("RunBatched should report an early stop")
	}
	if blocks != 3 {
		t.Fatalf("sink saw %d blocks after stopping at 3", blocks)
	}
}

func TestRunColumnsMatchesRun(t *testing.T) {
	g := testGraph()
	l := NewLayout(g)
	for _, dir := range []Direction{Pull, Push, PushRead} {
		want := collectScalar(g, dir)
		for _, bs := range []int{1, 2, 3, 101, 0} {
			var addrs []uint64
			var writes []bool
			edgeReads := 0
			done := RunColumns(g, l, dir, bs, func(a []uint64, w []bool, er int) bool {
				addrs = append(addrs, a...)
				writes = append(writes, w...)
				// Per-block edge-read counts must match the block content,
				// not just the total.
				n := 0
				for _, acc := range want[len(addrs)-len(a) : len(addrs)] {
					if acc.Kind == KindEdges {
						n++
					}
				}
				if er != n {
					t.Fatalf("%s/bs=%d: block edgeReads = %d, want %d", dir, bs, er, n)
				}
				edgeReads += er
				return true
			})
			if !done {
				t.Fatalf("%s/bs=%d: RunColumns reported early stop", dir, bs)
			}
			if len(addrs) != len(want) {
				t.Fatalf("%s/bs=%d: %d accesses, want %d", dir, bs, len(addrs), len(want))
			}
			totalEdges := 0
			for i, a := range want {
				if addrs[i] != a.Addr {
					t.Fatalf("%s/bs=%d: addr %d = %#x, want %#x", dir, bs, i, addrs[i], a.Addr)
				}
				if writes[i] != a.Write {
					t.Fatalf("%s/bs=%d: write %d = %v, want %v", dir, bs, i, writes[i], a.Write)
				}
				if a.Kind == KindEdges {
					totalEdges++
				}
			}
			if edgeReads != totalEdges {
				t.Fatalf("%s/bs=%d: edgeReads sum %d, want %d", dir, bs, edgeReads, totalEdges)
			}
		}
	}
}

func TestRunParallelBatchedMatchesRunParallel(t *testing.T) {
	g := testGraph()
	l := NewLayout(g)
	for _, dir := range []Direction{Pull, Push} {
		for _, threads := range []int{1, 3, 4} {
			for _, interval := range []int{1, 37, 1024} {
				want := collectRun(g, withThreads(Whole(g, dir), threads, interval))
				for _, bs := range []int{17, 0} {
					var got []Access
					RunParallelBatched(g, l, dir, threads, interval, bs, func(block []Access) bool {
						got = append(got, block...)
						return true
					})
					name := fmt.Sprintf("%s/t=%d/iv=%d/bs=%d", dir, threads, interval, bs)
					assertSameStream(t, name, want, got)
				}
			}
		}
	}
}
