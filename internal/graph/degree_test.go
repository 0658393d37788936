package graph

import "testing"

func TestDegreeSlices(t *testing.T) {
	g := diamond()
	out := g.OutDegrees()
	in := g.InDegrees()
	total := g.TotalDegrees()
	for v := uint32(0); v < g.NumVertices(); v++ {
		if out[v] != g.OutDegree(v) {
			t.Errorf("OutDegrees[%d] = %d", v, out[v])
		}
		if in[v] != g.InDegree(v) {
			t.Errorf("InDegrees[%d] = %d", v, in[v])
		}
		if total[v] != out[v]+in[v] {
			t.Errorf("TotalDegrees[%d] = %d, want %d", v, total[v], out[v]+in[v])
		}
	}
}

func TestDegreeHistogram(t *testing.T) {
	h := DegreeHistogram([]uint32{1, 2, 2, 3, 3, 3})
	if h[1] != 1 || h[2] != 2 || h[3] != 3 {
		t.Errorf("histogram = %v", h)
	}
	if len(DegreeHistogram(nil)) != 0 {
		t.Error("empty histogram should be empty")
	}
}

func TestVerticesByDegree(t *testing.T) {
	deg := []uint32{5, 1, 5, 3}
	desc := VerticesByDegreeDesc(deg)
	// Degrees 5,5,3,1 with ID tiebreak ascending: 0,2,3,1.
	want := []uint32{0, 2, 3, 1}
	for i := range want {
		if desc[i] != want[i] {
			t.Fatalf("desc = %v, want %v", desc, want)
		}
	}
	asc := VerticesByDegreeAsc(deg)
	wantAsc := []uint32{1, 3, 0, 2}
	for i := range wantAsc {
		if asc[i] != wantAsc[i] {
			t.Fatalf("asc = %v, want %v", asc, wantAsc)
		}
	}
}

func TestAccessorSlices(t *testing.T) {
	g := diamond()
	if len(g.OutOffsets()) != int(g.NumVertices())+1 {
		t.Error("OutOffsets length")
	}
	if len(g.InOffsets()) != int(g.NumVertices())+1 {
		t.Error("InOffsets length")
	}
	if uint64(len(g.OutEdges())) != g.NumEdges() {
		t.Error("OutEdges length")
	}
	if uint64(len(g.InEdges())) != g.NumEdges() {
		t.Error("InEdges length")
	}
	// Offsets index the edges arrays consistently.
	off := g.OutOffsets()
	adj := g.OutEdges()
	for v := uint32(0); v < g.NumVertices(); v++ {
		nbrs := adj[off[v]:off[v+1]]
		want := g.OutNeighbors(v)
		if len(nbrs) != len(want) {
			t.Fatalf("accessor mismatch at %d", v)
		}
		for i := range nbrs {
			if nbrs[i] != want[i] {
				t.Fatalf("accessor mismatch at %d", v)
			}
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	// Hand-corrupt internal state and check Validate notices.
	fresh := func() *Graph { return diamond() }

	g := fresh()
	g.outOff = g.outOff[:2]
	if g.Validate() == nil {
		t.Error("short offsets accepted")
	}

	g = fresh()
	g.outOff[0] = 1
	if g.Validate() == nil {
		t.Error("nonzero first offset accepted")
	}

	g = fresh()
	g.outOff[g.n] = 99
	if g.Validate() == nil {
		t.Error("bad tail offset accepted")
	}

	g = fresh()
	g.inAdj = g.inAdj[:len(g.inAdj)-1]
	if g.Validate() == nil {
		t.Error("CSR/CSC count mismatch accepted")
	}

	g = fresh()
	g.outOff[1], g.outOff[2] = g.outOff[2], g.outOff[1]-1
	if g.Validate() == nil {
		t.Error("non-monotone offsets accepted")
	}

	g = fresh()
	g.outAdj[0] = 99
	if g.Validate() == nil {
		t.Error("out-of-range neighbour accepted")
	}

	g = fresh()
	if len(g.outAdj) >= 2 && g.outAdj[0] < g.outAdj[1] {
		g.outAdj[0], g.outAdj[1] = g.outAdj[1], g.outAdj[0]
		if g.Validate() == nil {
			t.Error("unsorted adjacency accepted")
		}
	}

	g = fresh()
	g.inAdj[len(g.inAdj)-1] = 98
	if g.Validate() == nil {
		t.Error("bad in-adjacency accepted")
	}
}
