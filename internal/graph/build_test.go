package graph

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// csrcsc holds the four topology arrays of a graph.
type csrcsc struct {
	outOff []uint64
	outAdj []uint32
	inOff  []uint64
	inAdj  []uint32
}

func arraysOf(g *Graph) csrcsc {
	return csrcsc{g.OutOffsets(), g.OutEdges(), g.InOffsets(), g.InEdges()}
}

// naiveBuild is the reference builder: per direction, append every edge to
// its bucket, then slices.Sort (and optionally slices.Compact) each bucket.
func naiveBuild(n uint32, edges []Edge, dedup bool) csrcsc {
	side := func(in bool) ([]uint64, []uint32) {
		buckets := make([][]uint32, n)
		for _, e := range edges {
			k, v := e.Src, e.Dst
			if in {
				k, v = v, k
			}
			buckets[k] = append(buckets[k], v)
		}
		off := make([]uint64, 1, n+1)
		adj := []uint32{}
		for _, b := range buckets {
			slices.Sort(b)
			if dedup {
				b = slices.Compact(b)
			}
			adj = append(adj, b...)
			off = append(off, uint64(len(adj)))
		}
		return off, adj
	}
	var a csrcsc
	a.outOff, a.outAdj = side(false)
	a.inOff, a.inAdj = side(true)
	return a
}

// checkArrays fails unless g has n vertices and all four arrays equal want.
func checkArrays(t *testing.T, name string, g *Graph, n uint32, want csrcsc) {
	t.Helper()
	if g.NumVertices() != n {
		t.Fatalf("%s: |V| = %d, want %d", name, g.NumVertices(), n)
	}
	got := arraysOf(g)
	if !slices.Equal(got.outOff, want.outOff) || !slices.Equal(got.outAdj, want.outAdj) {
		t.Fatalf("%s: CSR = %v %v, want %v %v", name, got.outOff, got.outAdj, want.outOff, want.outAdj)
	}
	if !slices.Equal(got.inOff, want.inOff) || !slices.Equal(got.inAdj, want.inAdj) {
		t.Fatalf("%s: CSC = %v %v, want %v %v", name, got.inOff, got.inAdj, want.inOff, want.inAdj)
	}
}

// messyEdges draws m edges over n vertices with the cases a builder can
// get wrong: repeated edges, self-loops, vertices with no edges at all,
// and shuffled order.
func messyEdges(rng *rand.Rand, n uint32, m int) []Edge {
	if n == 0 {
		return nil
	}
	// Only about two thirds of the vertices get edges.
	active := rng.Perm(int(n))[:1+int(n)*2/3]
	pick := func() uint32 { return uint32(active[rng.Intn(len(active))]) }
	edges := make([]Edge, 0, m)
	for len(edges) < m {
		switch r := rng.Intn(10); {
		case r == 0 && len(edges) > 0:
			edges = append(edges, edges[rng.Intn(len(edges))])
		case r == 1:
			v := pick()
			edges = append(edges, Edge{v, v})
		default:
			edges = append(edges, Edge{pick(), pick()})
		}
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	return edges
}

// checkBuildersAgainstNaive runs every builder on (n, edges) and compares
// all four arrays with the naive builder on the equivalent edge list. rng
// draws the permutation, the keep mask and the FromCSR bucket order.
func checkBuildersAgainstNaive(t *testing.T, rng *rand.Rand, n uint32, edges []Edge) {
	t.Helper()
	g := FromEdges(n, edges)
	checkArrays(t, "FromEdges", g, n, naiveBuild(n, edges, false))
	checkArrays(t, "FromEdgesDedup", FromEdgesDedup(n, edges), n, naiveBuild(n, edges, true))

	// CSR in input edge order: buckets unsorted, duplicates kept.
	off := make([]uint64, n+1)
	for _, e := range edges {
		off[e.Src+1]++
	}
	prefixSum(off)
	adj := make([]uint32, len(edges))
	cur := slices.Clone(off)
	for _, e := range edges {
		adj[cur[e.Src]] = e.Dst
		cur[e.Src]++
	}
	fc, err := FromCSR(n, off, adj)
	if err != nil {
		t.Fatalf("FromCSR: %v", err)
	}
	checkArrays(t, "FromCSR", fc, n, naiveBuild(n, edges, false))

	sym := make([]Edge, 0, 2*len(edges))
	for _, e := range edges {
		sym = append(sym, e, Edge{e.Dst, e.Src})
	}
	checkArrays(t, "Undirected", g.Undirected(), n, naiveBuild(n, sym, true))

	p := randomPermutation(rng, n)
	relabeled := make([]Edge, len(edges))
	for i, e := range edges {
		relabeled[i] = Edge{p[e.Src], p[e.Dst]}
	}
	checkArrays(t, "Relabel", g.Relabel(p), n, naiveBuild(n, relabeled, false))

	keep := make([]bool, n)
	for v := range keep {
		keep[v] = rng.Intn(3) > 0
	}
	sub, mapping := g.InducedSubgraph(keep)
	checkInduced(t, "InducedSubgraph", sub, mapping, edges, keep)

	nonZero := make([]bool, n)
	for _, e := range edges {
		nonZero[e.Src], nonZero[e.Dst] = true, true
	}
	rz, mapping := g.RemoveZeroDegree()
	checkInduced(t, "RemoveZeroDegree", rz, mapping, edges, nonZero)
}

// checkInduced checks an induced subgraph and its mapping against the
// naive builder on the surviving edges, renumbered in ascending order.
func checkInduced(t *testing.T, name string, h *Graph, mapping []uint32, edges []Edge, keep []bool) {
	t.Helper()
	want := make([]uint32, len(keep))
	var next uint32
	for v, k := range keep {
		want[v] = NoVertex
		if k {
			want[v] = next
			next++
		}
	}
	if !slices.Equal(mapping, want) {
		t.Fatalf("%s: mapping = %v, want %v", name, mapping, want)
	}
	var kept []Edge
	for _, e := range edges {
		if keep[e.Src] && keep[e.Dst] {
			kept = append(kept, Edge{want[e.Src], want[e.Dst]})
		}
	}
	checkArrays(t, name, h, next, naiveBuild(next, kept, false))
}

func TestBuildersMatchNaive(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := uint32(rng.Intn(40))
		m := 0
		if n > 0 {
			m = rng.Intn(4*int(n) + 1)
		}
		checkBuildersAgainstNaive(t, rng, n, messyEdges(rng, n, m))
	}
}

// FuzzBuildersVsNaive decodes data as a vertex count (first byte, mod 64)
// followed by (src, dst) byte pairs taken mod n, and checks every builder
// against the naive one. seed draws the permutation, keep mask and FromCSR
// bucket order.
func FuzzBuildersVsNaive(f *testing.F) {
	f.Add([]byte{}, int64(0))
	f.Add([]byte{4, 0, 1, 0, 2, 1, 3, 2, 3, 3, 0}, int64(1))
	f.Add([]byte{5, 2, 2, 2, 2, 4, 1, 1, 4, 4, 1}, int64(2))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		var n uint32
		if len(data) > 0 {
			n, data = uint32(data[0]%64), data[1:]
		}
		var edges []Edge
		for i := 0; n > 0 && i+1 < len(data); i += 2 {
			edges = append(edges, Edge{uint32(data[i]) % n, uint32(data[i+1]) % n})
		}
		checkBuildersAgainstNaive(t, rand.New(rand.NewSource(seed)), n, edges)
	})
}

func TestRelabelMetamorphic(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := uint32(rng.Intn(50))
		g := FromEdges(n, messyEdges(rng, n, rng.Intn(5*int(n)+1)))
		checkArrays(t, "Relabel(Identity)", g.Relabel(Identity(n)), n, arraysOf(g))
		p := randomPermutation(rng, n)
		checkArrays(t, "Relabel(p).Relabel(p⁻¹)", g.Relabel(p).Relabel(p.Inverse()), n, arraysOf(g))
	}
}

func TestUndirectedMetamorphic(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := uint32(rng.Intn(50))
		g := FromEdges(n, messyEdges(rng, n, rng.Intn(5*int(n)+1)))
		u := g.Undirected()
		if err := u.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		a := arraysOf(u)
		if !slices.Equal(a.outOff, a.inOff) || !slices.Equal(a.outAdj, a.inAdj) {
			t.Fatalf("seed %d: CSR and CSC differ", seed)
		}
		for v := uint32(0); v < n; v++ {
			nb := u.OutNeighbors(v)
			for i, w := range nb {
				if i > 0 && nb[i-1] >= w {
					t.Fatalf("seed %d: neighbours of %d not strictly ascending: %v", seed, v, nb)
				}
				if !u.HasEdge(w, v) {
					t.Fatalf("seed %d: edge (%d,%d) has no reverse", seed, v, w)
				}
			}
			for _, w := range g.OutNeighbors(v) {
				if !u.HasEdge(v, w) {
					t.Fatalf("seed %d: edge (%d,%d) lost", seed, v, w)
				}
			}
		}
		checkArrays(t, "Undirected(Undirected)", u.Undirected(), n, a)
	}
}

func TestRelabelRejectsNonBijection(t *testing.T) {
	g := diamond()
	for _, tc := range []struct {
		name string
		perm Permutation
		want string
	}{
		{"duplicate", Permutation{0, 1, 1, 3}, "new ID 1 assigned twice"},
		{"out of range", Permutation{0, 1, 4, 2}, "new ID 4 of vertex 2 out of range"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "graph: Relabel: ") || !strings.Contains(msg, tc.want) {
					t.Fatalf("panic %q, want one naming %q", msg, tc.want)
				}
			}()
			g.Relabel(tc.perm)
		})
	}
}

// The builders run a constant number of counting scatters, so their
// allocation count does not grow with |V|; a per-bucket sort would.
func TestBuildersAllocateConstant(t *testing.T) {
	for _, n := range []uint32{1 << 8, 1 << 14} {
		rng := rand.New(rand.NewSource(int64(n)))
		edges := messyEdges(rng, n, 8*int(n))
		g := FromEdges(n, edges)
		p := randomPermutation(rng, n)
		for _, c := range []struct {
			name string
			fn   func()
		}{
			{"FromEdges", func() { FromEdges(n, edges) }},
			{"Relabel", func() { g.Relabel(p) }},
			{"Undirected", func() { g.Undirected() }},
		} {
			if a := testing.AllocsPerRun(5, c.fn); a > 10 {
				t.Errorf("%s with |V|=%d: %.0f allocations, want <= 10", c.name, n, a)
			}
		}
	}
}
