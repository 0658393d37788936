package reorder

import (
	"context"
	"sort"
	"sync"
	"testing"

	"graphlocality/internal/gen"
	"graphlocality/internal/graph"
)

func TestBrewBijectivity(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"empty":    graph.FromEdges(0, nil),
		"isolated": graph.FromEdges(7, nil),
		"cliques":  twoCliquesBridged(10),
		"rmat":     gen.RMAT(gen.DefaultRMAT(11, 8, 3)),
		"er":       gen.ErdosRenyi(400, 1600, 5),
	}
	for name, g := range graphs {
		g := g
		t.Run(name, func(t *testing.T) {
			perm, err := (&Brew{Seed: 1}).Reorder(context.Background(), g)
			if err != nil {
				t.Fatal(err)
			}
			if err := perm.Validate(); err != nil {
				t.Fatalf("invalid permutation: %v", err)
			}
			if uint32(len(perm)) != g.NumVertices() {
				t.Fatalf("perm length %d != |V| %d", len(perm), g.NumVertices())
			}
		})
	}
}

func TestBrewPreservesDegreeMultiset(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(11, 8, 13))
	perm, err := (&Brew{Seed: 1}).Reorder(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	h := g.Relabel(perm)
	degs := func(x *graph.Graph) []uint32 {
		out := make([]uint32, x.NumVertices())
		for v := uint32(0); v < x.NumVertices(); v++ {
			out[v] = x.OutDegree(v) + x.InDegree(v)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	a, b := degs(g), degs(h)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("degree multiset changed at rank %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestBrewDeterministicUnderFixedSeed(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(11, 8, 17))
	a, err := (&Brew{Seed: 42}).Reorder(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	b, err := (&Brew{Seed: 42}).Reorder(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("permutations differ at vertex %d: %d vs %d", v, a[v], b[v])
		}
	}
}

// TestBrewParallelRuns exercises concurrent Reorder calls on separate Brew
// instances (the way the expt scheduler runs algorithms) under -race.
func TestBrewParallelRuns(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 8, 23))
	want, err := (&Brew{Seed: 7}).Reorder(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			perm, err := (&Brew{Seed: 7}).Reorder(context.Background(), g)
			if err != nil {
				t.Error(err)
				return
			}
			for v := range perm {
				if perm[v] != want[v] {
					t.Errorf("parallel run diverged at vertex %d", v)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestBrewDifferentialSingleCommunity pins the identity-embedding design:
// brew with detect=none and one forced sub-algorithm must equal that
// algorithm run globally, bit for bit.
func TestBrewDifferentialSingleCommunity(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"rmat": gen.RMAT(gen.DefaultRMAT(11, 8, 29)),
		"er":   gen.ErdosRenyi(500, 2500, 31),
	}
	for _, forced := range []string{"dbg", "hubsort", "ro", "go"} {
		forced := forced
		for gname, g := range graphs {
			g := g
			t.Run(forced+"/"+gname, func(t *testing.T) {
				brew, err := New("brew:detect=none,hub=" + forced +
					",dense=" + forced + ",else=" + forced)
				if err != nil {
					t.Fatal(err)
				}
				got, err := brew.Reorder(context.Background(), g)
				if err != nil {
					t.Fatal(err)
				}
				global, err := New(forced)
				if err != nil {
					t.Fatal(err)
				}
				want, err := global.Reorder(context.Background(), g)
				if err != nil {
					t.Fatal(err)
				}
				for v := range want {
					if got[v] != want[v] {
						t.Fatalf("brew(detect=none,%s) diverges from global %s at vertex %d: %d vs %d",
							forced, forced, v, got[v], want[v])
					}
				}
			})
		}
	}
}

// TestBrewGroupsCommunities checks that the merge lays communities out in
// contiguous ID ranges, largest community first.
func TestBrewGroupsCommunities(t *testing.T) {
	g := twoCliquesBridged(12)
	b := &Brew{Seed: 1}
	comms, err := DetectLouvain(context.Background(), g, 1.0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if comms.Count < 2 {
		t.Skip("detector merged the planted communities")
	}
	perm, err := b.Reorder(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	// For each community, the new IDs of its members must form one
	// contiguous range.
	for id, grp := range comms.Groups() {
		min, max := ^uint32(0), uint32(0)
		for _, v := range grp {
			if perm[v] < min {
				min = perm[v]
			}
			if perm[v] > max {
				max = perm[v]
			}
		}
		if int(max-min)+1 != len(grp) {
			t.Errorf("community %d not contiguous: IDs span [%d,%d] for %d members",
				id, min, max, len(grp))
		}
	}
}

func TestBrewCancellation(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(12, 8, 37))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	perm, err := (&Brew{Seed: 1, PollEvery: 1}).Reorder(ctx, g)
	if err == nil {
		t.Fatal("want cancellation error")
	}
	if verr := perm.Validate(); verr != nil {
		t.Fatalf("partial result not a valid permutation: %v", verr)
	}
}

func TestBrewName(t *testing.T) {
	cases := []struct {
		spec string
		want string
	}{
		{"brew", "Brew"},
		{"brew:detect=louvain,hub=hubsort,dense=ro,else=dbg,resolution=1.0", "Brew"},
		{"brew:detect=lp", "Brew[detect=lp]"},
		{"brew:hub=hs", "Brew"}, // alias resolves to the default hubsort
		{"brew:else=go,resolution=2.5", "Brew[else=go,resolution=2.5]"},
		{"brew:seed=9,minsize=4", "Brew[minsize=4,seed=9]"},
	}
	for _, c := range cases {
		alg, err := New(c.spec)
		if err != nil {
			t.Errorf("New(%q): %v", c.spec, err)
			continue
		}
		if alg.Name() != c.want {
			t.Errorf("Name(%q) = %q, want %q", c.spec, alg.Name(), c.want)
		}
	}
}

func TestBrewSpecErrors(t *testing.T) {
	bad := []string{
		"brew:detect=metis",    // unknown detector
		"brew:hub=nope",        // unknown sub-algorithm
		"brew:dense=hybrid",    // meta sub-algorithm
		"brew:else=brew",       // recursive brew
		"brew:resolution=-1",   // non-positive resolution
		"brew:resolution=fine", // non-numeric resolution
		"brew:minsize=0",       // minsize below 1
		"brew:strength=11",     // unknown structured key
		"brew:window=3",        // generic key brew does not accept
	}
	for _, spec := range bad {
		if _, err := New(spec); err == nil {
			t.Errorf("New(%q) accepted, want error", spec)
		}
	}
}

func TestClassifier(t *testing.T) {
	// A star is hub-heavy; a clique is dense; a path is sparse.
	star := make([]graph.Edge, 0, 40)
	for i := uint32(1); i <= 20; i++ {
		star = append(star, graph.Edge{Src: 0, Dst: i}, graph.Edge{Src: i, Dst: 0})
	}
	gStar := graph.FromEdges(21, star)

	var clique []graph.Edge
	for i := uint32(0); i < 10; i++ {
		for j := uint32(0); j < 10; j++ {
			if i != j {
				clique = append(clique, graph.Edge{Src: i, Dst: j})
			}
		}
	}
	gClique := graph.FromEdges(10, clique)

	var path []graph.Edge
	for i := uint32(0); i+1 < 30; i++ {
		path = append(path, graph.Edge{Src: i, Dst: i + 1})
	}
	gPath := graph.FromEdges(30, path)

	var clf Classifier
	single := func(g *graph.Graph) *graph.Subgraph {
		return g.PartitionByMembership(make([]uint32, g.NumVertices()), 1)[0]
	}
	if got := clf.Classify(single(gStar)); got != CommunityHubHeavy {
		t.Errorf("star classified %v, want hub-heavy", got)
	}
	if got := clf.Classify(single(gClique)); got != CommunityDense {
		t.Errorf("clique classified %v, want dense", got)
	}
	if got := clf.Classify(single(gPath)); got != CommunitySparse {
		t.Errorf("path classified %v, want sparse", got)
	}
}
