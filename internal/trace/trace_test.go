package trace

import (
	"testing"

	"graphlocality/internal/gen"
	"graphlocality/internal/graph"
)

func chain() *graph.Graph {
	// 0 -> 1 -> 2, plus 0 -> 2
	return graph.FromEdges(3, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 0, Dst: 2}})
}

// runAll feeds one full single-threaded iteration to sink.
func runAll(g *graph.Graph, l Layout, dir Direction, sink Sink) {
	Run(g, l, Whole(g, dir), func(a Access) bool { sink(a); return true })
}

// runThreads feeds the interleaved stream of threads emulated threads to
// sink.
func runThreads(g *graph.Graph, l Layout, dir Direction, threads, interval int, sink Sink) {
	s := Whole(g, dir)
	s.Threads, s.Interval = threads, interval
	Run(g, l, s, func(a Access) bool { sink(a); return true })
}

func TestLayoutDisjointArrays(t *testing.T) {
	g := gen.Ring(1000)
	l := NewLayout(g)
	type ext struct{ lo, hi uint64 }
	n, m := uint64(g.NumVertices()), g.NumEdges()
	exts := []ext{
		{l.OffsetsBase, l.OffsetsBase + (n+1)*OffsetBytes},
		{l.EdgesBase, l.EdgesBase + m*EdgeBytes},
		{l.OldDataBase, l.OldDataBase + n*VertexDataBytes},
		{l.NewDataBase, l.NewDataBase + n*VertexDataBytes},
	}
	for i := 0; i < len(exts); i++ {
		for j := i + 1; j < len(exts); j++ {
			if exts[i].lo < exts[j].hi && exts[j].lo < exts[i].hi {
				t.Errorf("arrays %d and %d overlap: %+v %+v", i, j, exts[i], exts[j])
			}
		}
	}
}

func TestLayoutInOldData(t *testing.T) {
	g := gen.Ring(10)
	l := NewLayout(g)
	if !l.InOldData(l.OldDataAddr(0)) || !l.InOldData(l.OldDataAddr(9)) {
		t.Error("OldData addresses not classified as old data")
	}
	if l.InOldData(l.OldDataAddr(9) + VertexDataBytes) {
		t.Error("address past Di classified as old data")
	}
	if l.InOldData(l.NewDataAddr(0)) || l.InOldData(l.EdgeAddr(0)) {
		t.Error("other arrays classified as old data")
	}
}

func TestRunAccessCount(t *testing.T) {
	g := chain()
	var got []Access
	runAll(g, NewLayout(g), Pull, func(a Access) { got = append(got, a) })
	if want := CountAccesses(g); uint64(len(got)) != want {
		t.Fatalf("access count = %d, want %d", len(got), want)
	}
}

func TestRunPullSemantics(t *testing.T) {
	g := chain()
	l := NewLayout(g)
	var reads []uint32
	var writes []uint32
	runAll(g, l, Pull, func(a Access) {
		switch a.Kind {
		case KindVertexRead:
			if a.Write {
				t.Error("vertex read flagged as write")
			}
			if a.Addr != l.OldDataAddr(a.Vertex) {
				t.Errorf("pull read at %#x, want Di[%d]", a.Addr, a.Vertex)
			}
			reads = append(reads, a.Vertex)
		case KindVertexWrite:
			if !a.Write {
				t.Error("vertex write not flagged as write")
			}
			if a.Addr != l.NewDataAddr(a.Vertex) {
				t.Errorf("pull write at %#x, want Di+1[%d]", a.Addr, a.Vertex)
			}
			writes = append(writes, a.Vertex)
		}
	})
	// Pull reads in-neighbours: vertex 1 reads {0}; vertex 2 reads {0,1}.
	wantReads := []uint32{0, 0, 1}
	if len(reads) != len(wantReads) {
		t.Fatalf("reads = %v, want %v", reads, wantReads)
	}
	for i := range reads {
		if reads[i] != wantReads[i] {
			t.Fatalf("reads = %v, want %v", reads, wantReads)
		}
	}
	// Each vertex writes its own new data exactly once, in order.
	if len(writes) != 3 || writes[0] != 0 || writes[1] != 1 || writes[2] != 2 {
		t.Fatalf("writes = %v", writes)
	}
}

func TestRunPushSemantics(t *testing.T) {
	g := chain()
	l := NewLayout(g)
	var randomWrites []uint32
	runAll(g, l, Push, func(a Access) {
		if a.Kind == KindVertexWrite {
			if a.Addr != l.NewDataAddr(a.Vertex) {
				t.Errorf("push write at %#x, want Di+1[%d]", a.Addr, a.Vertex)
			}
			randomWrites = append(randomWrites, a.Vertex)
		}
	})
	// Push writes out-neighbours: 0 writes {1,2}; 1 writes {2}.
	want := []uint32{1, 2, 2}
	if len(randomWrites) != len(want) {
		t.Fatalf("writes = %v, want %v", randomWrites, want)
	}
	for i := range want {
		if randomWrites[i] != want[i] {
			t.Fatalf("writes = %v, want %v", randomWrites, want)
		}
	}
}

func TestRunPushReadSemantics(t *testing.T) {
	g := chain()
	l := NewLayout(g)
	var reads []uint32
	runAll(g, l, PushRead, func(a Access) {
		if a.Kind == KindVertexRead {
			if a.Addr != l.OldDataAddr(a.Vertex) {
				t.Errorf("push-read at %#x, want Di[%d]", a.Addr, a.Vertex)
			}
			reads = append(reads, a.Vertex)
		}
	})
	// PushRead reads out-neighbours: 0 reads {1,2}; 1 reads {2}.
	want := []uint32{1, 2, 2}
	if len(reads) != len(want) {
		t.Fatalf("reads = %v, want %v", reads, want)
	}
	for i := range want {
		if reads[i] != want[i] {
			t.Fatalf("reads = %v, want %v", reads, want)
		}
	}
}

func TestEdgesAccessedOnce(t *testing.T) {
	g := gen.ErdosRenyi(200, 1000, 3)
	l := NewLayout(g)
	seen := map[uint64]int{}
	runAll(g, l, Pull, func(a Access) {
		if a.Kind == KindEdges {
			seen[a.Addr]++
		}
	})
	if uint64(len(seen)) != g.NumEdges() {
		t.Fatalf("touched %d edge elements, want %d", len(seen), g.NumEdges())
	}
	for addr, c := range seen {
		if c != 1 {
			t.Fatalf("edge element %#x accessed %d times", addr, c)
		}
	}
}

func TestRunParallelSameAccessMultiset(t *testing.T) {
	// Interleaving must not change the multiset of accesses, only order.
	g := gen.ErdosRenyi(300, 2000, 5)
	l := NewLayout(g)
	count := func(run func(Sink)) map[Access]int {
		m := map[Access]int{}
		run(func(a Access) { m[a]++ })
		return m
	}
	seq := count(func(s Sink) { runAll(g, l, Pull, s) })
	par := count(func(s Sink) { runThreads(g, l, Pull, 4, 64, s) })
	if len(seq) != len(par) {
		t.Fatalf("distinct accesses differ: %d vs %d", len(seq), len(par))
	}
	for a, c := range seq {
		if par[a] != c {
			t.Fatalf("access %+v count %d vs %d", a, c, par[a])
		}
	}
}

func TestRunParallelInterleaves(t *testing.T) {
	// With 2 threads the first two intervals must come from different
	// partitions (different vertex ranges).
	g := gen.Ring(100)
	l := NewLayout(g)
	var vertices []uint32
	runThreads(g, l, Pull, 2, 10, func(a Access) {
		if a.Kind == KindOffsets {
			vertices = append(vertices, a.Vertex)
		}
	})
	if len(vertices) < 10 {
		t.Fatal("too few accesses")
	}
	// Find a vertex from the second partition early in the stream.
	early := vertices[:len(vertices)/4]
	sawHigh := false
	for _, v := range early {
		if v >= 50 {
			sawHigh = true
		}
	}
	if !sawHigh {
		t.Error("no second-partition vertices early in the stream — not interleaved")
	}
}

func TestRunParallelDegenerateArgs(t *testing.T) {
	g := chain()
	l := NewLayout(g)
	var n uint64
	runThreads(g, l, Pull, 0, 0, func(Access) { n++ })
	if n != CountAccesses(g) {
		t.Errorf("degenerate args: %d accesses, want %d", n, CountAccesses(g))
	}
}

func TestEmptyGraphTrace(t *testing.T) {
	g := graph.FromEdges(0, nil)
	called := false
	runAll(g, NewLayout(g), Pull, func(Access) { called = true })
	if called {
		t.Error("empty graph generated accesses")
	}
}

func TestKindAndDirectionStrings(t *testing.T) {
	if KindOffsets.String() == "" || KindEdges.String() == "" ||
		KindVertexRead.String() == "" || KindVertexWrite.String() == "" {
		t.Error("empty kind name")
	}
	if Kind(99).String() != "unknown" {
		t.Error("unknown kind should stringify as unknown")
	}
	for _, d := range []Direction{Pull, Push, PushRead} {
		if d.String() == "unknown" {
			t.Errorf("direction %d unnamed", d)
		}
	}
	if Direction(99).String() != "unknown" {
		t.Error("unknown direction")
	}
}

func TestParseDirection(t *testing.T) {
	cases := map[string]Direction{
		"pull": Pull, "push": Push, "pushread": PushRead,
	}
	for name, want := range cases {
		got, err := ParseDirection(name)
		if err != nil || got != want {
			t.Errorf("ParseDirection(%q) = %v, %v", name, got, err)
		}
	}
	for _, bad := range []string{"sideways", ""} {
		if _, err := ParseDirection(bad); err == nil {
			t.Errorf("bad direction %q accepted", bad)
		}
	}
}

// TestDirectionRoundTrip checks String prints the name ParseDirection,
// the CLI's -dir and the serve API accept.
func TestDirectionRoundTrip(t *testing.T) {
	for _, d := range []Direction{Pull, Push, PushRead} {
		if got, err := ParseDirection(d.String()); err != nil || got != d {
			t.Errorf("ParseDirection(%q) = %v, %v; want %v", d.String(), got, err, d)
		}
	}
}

func TestFootprintBytes(t *testing.T) {
	g := chain()
	l := NewLayout(g)
	want := uint64(4*8 + 3*4 + 2*3*8)
	if got := l.FootprintBytes(); got != want {
		t.Errorf("FootprintBytes = %d, want %d", got, want)
	}
}
