package graph

import (
	"math"
	"slices"
	"sort"
	"testing"
)

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

// byComparator is the comparison sort VerticesByDegreeDesc and
// VerticesByDegreeAsc replaced: degree in the given direction, then
// ascending ID.
func byComparator(degrees []uint32, desc bool) []uint32 {
	order := make([]uint32, len(degrees))
	for i := range order {
		order[i] = uint32(i)
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if degrees[a] != degrees[b] {
			return (degrees[a] > degrees[b]) == desc
		}
		return a < b
	})
	return order
}

// TestVerticesByDegreeMatchesComparator checks the counting sort gives
// the comparison sort's total order, on corner cases, on seeded random
// degree slices and on degrees far above n (the fallback path).
func TestVerticesByDegreeMatchesComparator(t *testing.T) {
	cases := [][]uint32{
		nil,
		{},
		{0},
		{7, 7, 7, 7, 7},
		{0, 0, 0},
		{3, 2, 1, 0},
		{0, 1, 2, 3},
		{math.MaxUint32, 0, math.MaxUint32, 5},
		{1000, 1, 1000},
	}
	state := uint64(12345)
	for i := 0; i < 50; i++ {
		n := i * 13 % 300
		span := uint64(1 + i%17*i)
		d := make([]uint32, n)
		for v := range d {
			state = state*6364136223846793005 + 1442695040888963407
			d[v] = uint32((state >> 33) % span)
		}
		cases = append(cases, d)
	}
	for _, d := range cases {
		for _, desc := range []bool{true, false} {
			want := byComparator(d, desc)
			got := VerticesByDegreeAsc(d)
			if desc {
				got = VerticesByDegreeDesc(d)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("degrees %v desc=%v: got %v, want %v", d, desc, got, want)
			}
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
