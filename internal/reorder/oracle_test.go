package reorder_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"graphlocality/internal/gen"
	"graphlocality/internal/graph"
	"graphlocality/internal/reorder"
)

// oracleGraphs returns small graphs of every shape the GOrder oracle runs
// on: R-MAT social, web, Erdős–Rényi, preferential attachment, and a
// multigraph with duplicate edges and self-loops.
func oracleGraphs(seed uint64) map[string]*graph.Graph {
	multi := make([]graph.Edge, 0, 400)
	state := seed*0x9e3779b97f4a7c15 + 1
	for len(multi) < cap(multi) {
		state = state*6364136223846793005 + 1442695040888963407
		// A skewed source and a uniform target: a few sources get long
		// rows, and the 60 vertices see many repeated edges.
		src := uint32(state>>58) % 60
		if state>>57&1 == 0 {
			src %= 6
		}
		multi = append(multi, graph.Edge{Src: src, Dst: uint32(state>>20) % 60})
	}
	return map[string]*graph.Graph{
		"social": gen.SocialNetwork(7, 8, seed),
		"web":    gen.WebGraph(gen.DefaultWebGraph(200, 6, seed)),
		"er":     gen.ErdosRenyi(150, 600, seed),
		"pa":     gen.PreferentialAttachment(150, 4, seed),
		"multi":  graph.FromEdges(60, multi),
	}
}

// windowScore returns, for every vertex w, GOrder's score against window
// straight from the definition: Σ over x in window of Ss(w,x) + Sn(w,x),
// where Ss counts the common in-neighbours of w and x (with multiplicity)
// and Sn the edges x→w and w→x. An in-neighbour u with more than hubCap
// out-edges contributes nothing: no Ss term through u, and no Sn term
// for its own edge u→x.
func windowScore(g *graph.Graph, window []uint32, hubCap uint32) []int {
	n := g.NumVertices()
	score := make([]int, n)
	scores := func(u uint32) bool { return g.OutDegree(u) <= hubCap }
	inX := make([]int, n) // inX[u] = multiplicity of the edge u→x
	for _, x := range window {
		clear(inX)
		for _, u := range g.InNeighbors(x) {
			inX[u]++
		}
		for w := uint32(0); w < n; w++ {
			s := 0
			for _, u := range g.InNeighbors(w) {
				if scores(u) {
					s += inX[u] // Ss through u
				}
				if u == x {
					s++ // Sn: x→w
				}
			}
			if scores(w) {
				s += inX[w] // Sn: w→x
			}
			score[w] += s
		}
	}
	return score
}

// checkArgmax fails unless perm places, at every step, an unplaced vertex
// of maximum window score, or, when every unplaced vertex scores 0, the
// unplaced vertex of highest total degree (lowest ID on ties).
func checkArgmax(t *testing.T, name string, g *graph.Graph, perm graph.Permutation, w int, hubCap uint32) {
	t.Helper()
	n := g.NumVertices()
	order := make([]uint32, n)
	for old, nw := range perm {
		order[nw] = uint32(old)
	}
	placed := make([]bool, n)
	for i, p := range order {
		score := windowScore(g, order[max(0, i-w):i], hubCap)
		best, reseed := -1, graph.NoVertex
		for v := uint32(0); v < n; v++ {
			if placed[v] {
				continue
			}
			best = max(best, score[v])
			if reseed == graph.NoVertex || totalDegree(g, v) > totalDegree(g, reseed) {
				reseed = v
			}
		}
		switch {
		case best > 0 && score[p] != best:
			t.Fatalf("%s: step %d placed %d scoring %d, but the best unplaced score is %d", name, i, p, score[p], best)
		case best == 0 && p != reseed:
			t.Fatalf("%s: step %d placed %d with every score 0, want the highest-degree unplaced vertex %d", name, i, p, reseed)
		}
		placed[p] = true
	}
}

func totalDegree(g *graph.Graph, v uint32) uint32 { return g.OutDegree(v) + g.InDegree(v) }

// TestGOrderPlacesArgmax checks GOrder and its hub-capped form against
// their definitions, with scores rebuilt from scratch at every placement.
func TestGOrderPlacesArgmax(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		for kind, g := range oracleGraphs(seed) {
			sqrtCap := uint32(math.Sqrt(float64(g.NumVertices())))
			for _, w := range []int{1, 3, 5, 8} {
				for _, c := range []struct {
					spec string
					cap  uint32
				}{
					{fmt.Sprintf("go:window=%d", w), math.MaxUint32},
					{fmt.Sprintf("go:hubcap=sqrt,window=%d", w), sqrtCap},
				} {
					perm := reorder.Perm(reorder.MustNew(c.spec), g)
					checkArgmax(t, fmt.Sprintf("%s seed %d %s", kind, seed, c.spec), g, perm, w, c.cap)
				}
			}
		}
	}
}

// TestGOrderHubCapAboveMaxDegreeIsExact checks the metamorphic property
// of the cap: on a graph with no out-degree above ⌊√|V|⌋, go:hubcap=sqrt
// returns exactly go's permutation, at every window.
func TestGOrderHubCapAboveMaxDegreeIsExact(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		for kind, g := range map[string]*graph.Graph{
			"er":  gen.ErdosRenyi(400, 1600, seed),
			"web": gen.WebGraph(gen.DefaultWebGraph(400, 4, seed)),
			"pa":  gen.PreferentialAttachment(100, 3, seed),
		} {
			if maxOut := slices.Max(g.OutDegrees()); float64(maxOut) > math.Sqrt(float64(g.NumVertices())) {
				t.Fatalf("%s seed %d: max out-degree %d exceeds √%d; the case does not test the property", kind, seed, maxOut, g.NumVertices())
			}
			for _, w := range []int{1, 3, 5, 8} {
				want := reorder.Perm(reorder.MustNew(fmt.Sprintf("go:window=%d", w)), g)
				spec := fmt.Sprintf("go:hubcap=sqrt,window=%d", w)
				if got := reorder.Perm(reorder.MustNew(spec), g); !slices.Equal(got, want) {
					t.Errorf("%s seed %d: %s differs from go on a graph with no hub", kind, seed, spec)
				}
			}
		}
	}
}
