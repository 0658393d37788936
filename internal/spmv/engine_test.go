package spmv

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"graphlocality/internal/gen"
	"graphlocality/internal/graph"
)

func vectors(n uint32) (src, dst []float64) {
	src = make([]float64, n)
	dst = make([]float64, n)
	for i := range src {
		src[i] = float64(i%97) + 0.5
	}
	return src, dst
}

func almostEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9*(1+math.Abs(a[i])) {
			return false
		}
	}
	return true
}

func TestPullMatchesSequential(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(11, 8, 3))
	e := New(g, 4)
	src, dst := vectors(g.NumVertices())
	want := make([]float64, g.NumVertices())
	SequentialPull(g, src, want)
	st := e.Pull(src, dst)
	if !almostEqual(dst, want) {
		t.Fatal("parallel pull differs from sequential reference")
	}
	if st.Elapsed <= 0 || st.Threads != 4 {
		t.Errorf("stats = %+v", st)
	}
	if st.IdlePct < 0 || st.IdlePct > 100 {
		t.Errorf("IdlePct = %v", st.IdlePct)
	}
}

func TestPushReadMatchesSequential(t *testing.T) {
	g := gen.WebGraph(gen.DefaultWebGraph(4096, 6, 4))
	e := New(g, 3)
	src, dst := vectors(g.NumVertices())
	want := make([]float64, g.NumVertices())
	SequentialPushRead(g, src, want)
	e.PushRead(src, dst)
	if !almostEqual(dst, want) {
		t.Fatal("parallel push-read differs from sequential reference")
	}
}

func TestPushMatchesPull(t *testing.T) {
	// Push over the reverse graph computes the same sums as pull: for the
	// same graph, pull(v) sums in-neighbours; push distributes src[v] to
	// out-neighbours, so dst[u] accumulates over u's in-neighbours too.
	g := gen.ErdosRenyi(2000, 12000, 5)
	e := New(g, 4)
	src, pullDst := vectors(g.NumVertices())
	pushDst := make([]float64, g.NumVertices())
	e.Pull(src, pullDst)
	e.Push(src, pushDst)
	if !almostEqual(pullDst, pushDst) {
		t.Fatal("push result differs from pull result")
	}
}

func TestEngineSingleThread(t *testing.T) {
	g := gen.Ring(100)
	e := New(g, 1)
	src, dst := vectors(100)
	st := e.Pull(src, dst)
	if st.Steals != 0 {
		t.Errorf("single thread stole %d chunks", st.Steals)
	}
	want := make([]float64, 100)
	SequentialPull(g, src, want)
	if !almostEqual(dst, want) {
		t.Fatal("wrong result")
	}
}

func TestEngineDefaultThreads(t *testing.T) {
	g := gen.Ring(10)
	e := New(g, 0)
	if e.Threads() < 1 {
		t.Error("default threads not set")
	}
}

// TestEngineThreadsFollowGOMAXPROCS pins the threads=0 contract: the
// worker count is resolved per traversal, so an engine built while
// GOMAXPROCS was 1 drives all cores once GOMAXPROCS rises (the serving
// daemon resizes pools at runtime), and the result stays correct over the
// construction-time chunk partitioning.
func TestEngineThreadsFollowGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(1)
	g := gen.RMAT(gen.DefaultRMAT(10, 8, 5))
	e := New(g, 0)
	if got := e.Threads(); got != 1 {
		t.Fatalf("Threads() at GOMAXPROCS=1 = %d, want 1", got)
	}
	runtime.GOMAXPROCS(4)
	if got := e.Threads(); got != 4 {
		t.Fatalf("Threads() after GOMAXPROCS(4) = %d, want 4", got)
	}
	src, dst := vectors(g.NumVertices())
	want := make([]float64, g.NumVertices())
	SequentialPull(g, src, want)
	st := e.Pull(src, dst)
	if st.Threads != 4 {
		t.Errorf("traversal used %d workers, want 4", st.Threads)
	}
	if !almostEqual(dst, want) {
		t.Fatal("pull after GOMAXPROCS change differs from sequential reference")
	}
}

func TestWorkStealingOnSkewedGraph(t *testing.T) {
	// A star graph concentrates edges in few chunks; with several workers
	// at least one steal should happen.
	g := gen.Star(100000)
	e := New(g, 8)
	src, dst := vectors(g.NumVertices())
	var stole bool
	for i := 0; i < 10 && !stole; i++ {
		st := e.Pull(src, dst)
		stole = st.Steals > 0
	}
	if !stole {
		t.Error("no steals observed on a skewed graph across 10 runs")
	}
}

func TestEmptyGraphEngine(t *testing.T) {
	g := graph.FromEdges(0, nil)
	e := New(g, 2)
	st := e.Pull(nil, nil)
	if st.Elapsed < 0 {
		t.Error("bad stats")
	}
}

func TestPageRankSumsToOne(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 8, 7))
	g, _ = g.RemoveZeroDegree()
	e := New(g, 4)
	rank := PageRank(g, func(src, dst []float64) { e.Pull(src, dst) }, 10, 0.85)
	var sum float64
	for _, r := range rank {
		sum += r
	}
	// Dangling mass leaks in this formulation; sum stays within (0, 1].
	if sum <= 0 || sum > 1.0001 {
		t.Errorf("rank sum = %v", sum)
	}
	for _, r := range rank {
		if r < 0 {
			t.Fatal("negative rank")
		}
	}
	if PageRank(graph.FromEdges(0, nil), nil, 3, 0.85) != nil {
		t.Error("empty graph PageRank should be nil")
	}
}

func TestPageRankRanksHubHigher(t *testing.T) {
	g := gen.Star(1000) // all leaves point at vertex 0
	e := New(g, 2)
	rank := PageRank(g, func(src, dst []float64) { e.Pull(src, dst) }, 20, 0.85)
	for v := 1; v < 1000; v++ {
		if rank[0] <= rank[v] {
			t.Fatalf("hub rank %v not above leaf %v", rank[0], rank[v])
		}
	}
}

func TestNaiveMatchesEngine(t *testing.T) {
	g := gen.ErdosRenyi(1000, 6000, 9)
	naive := NewNaive(g)
	e := New(g, 2)
	src, a := vectors(g.NumVertices())
	b := make([]float64, g.NumVertices())
	naive.Pull(src, a)
	e.Pull(src, b)
	if !almostEqual(a, b) {
		t.Fatal("naive and engine disagree")
	}
}

// Property: pull is linear — Pull(αx) = α·Pull(x).
func TestPullLinearityProperty(t *testing.T) {
	g := gen.ErdosRenyi(300, 2000, 11)
	e := New(g, 2)
	f := func(alphaRaw uint8) bool {
		alpha := float64(alphaRaw%7) + 1
		src, d1 := vectors(g.NumVertices())
		scaled := make([]float64, len(src))
		d2 := make([]float64, len(src))
		for i := range src {
			scaled[i] = alpha * src[i]
		}
		e.Pull(src, d1)
		e.Pull(scaled, d2)
		for i := range d1 {
			if math.Abs(d2[i]-alpha*d1[i]) > 1e-6*(1+math.Abs(d2[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// SequentialPushRead is the reference CSR read traversal:
// dst[v] = Σ src[u] over out-neighbours u.
func SequentialPushRead(g *graph.Graph, src, dst []float64) {
	for v := uint32(0); v < g.NumVertices(); v++ {
		sum := 0.0
		for _, u := range g.OutNeighbors(v) {
			sum += src[u]
		}
		dst[v] = sum
	}
}
