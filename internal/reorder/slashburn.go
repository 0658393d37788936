package reorder

import (
	"cmp"
	"context"
	"math"
	"slices"
	"strconv"
	"sync"

	"graphlocality/internal/graph"
	"graphlocality/internal/runctl"
)

// SlashBurn implements the SlashBurn reordering (Lim, Kang & Faloutsos,
// TKDE 2014) as the paper describes it (§IV-A): graphs are seen as hubs
// connecting spokes. Each iteration removes the k highest-degree vertices
// ("hubs") of the current giant connected component (GCC), assigning them
// the next lowest IDs in degree order ("basic hub-ordering"); the
// non-giant components split off by the removal ("spokes") receive IDs
// from the top of the ID space; the GCC continues to the next iteration.
//
// The paper's configuration is k = 0.02·|V|. The classic stopping rule is
// |GCC| ≤ k. SlashBurn++ (§VIII-B1, Table VII) stops as soon as the GCC's
// maximum degree drops below √|V|, because past that point the GCC is a
// near-uniform low-degree network and further slashing only separates
// low-degree vertices from their neighbourhoods.
type SlashBurn struct {
	// KFraction is the hub fraction removed per iteration (default 0.02).
	KFraction float64
	// StopAtSqrtDegree enables the SlashBurn++ stopping rule.
	StopAtSqrtDegree bool
	// MaxIterations bounds the iteration count (0 = unbounded).
	MaxIterations int
	// CacheBytes, when non-zero, makes SlashBurn cache-aware as the paper
	// proposes in §VIII-C: iteration stops once the hubs assigned to the
	// front of the ID space no longer fit in the cache (8 bytes of vertex
	// data per hub), since hub data beyond cache capacity cannot be kept
	// resident anyway.
	CacheBytes uint64
	// OnIteration, when non-nil, is invoked after every iteration with the
	// 1-based iteration number and the degree (within the remaining
	// subgraph) of every vertex still in the GCC. Figure 2 of the paper is
	// produced from these snapshots.
	OnIteration func(iter int, gccDegrees []uint32)
	// PollEvery is the cooperative-cancellation granularity of Reorder,
	// in inner-loop steps (0 = runctl.DefaultPollInterval).
	PollEvery int

	statMu         sync.Mutex // guards lastIterations
	lastIterations int
}

// Name implements Algorithm.
func (s *SlashBurn) Name() string {
	base := "SB"
	if s.StopAtSqrtDegree {
		base = "SB++"
	} else if s.CacheBytes > 0 {
		base = "SB-CA"
	}
	return displayName(base, s.params()...)
}

// Spec implements Algorithm. KFraction and MaxIterations have no spec
// keys; the registry always builds the paper's k = 0.02·|V|, unbounded.
func (s *SlashBurn) Spec() string {
	name := "sb"
	if s.StopAtSqrtDegree {
		name = "sb++"
	}
	return specOf(name, s.params()...)
}

// params returns the non-default parameters.
func (s *SlashBurn) params() []Param {
	if s.CacheBytes == 0 {
		return nil
	}
	return []Param{{OptCacheBytes, strconv.FormatUint(s.CacheBytes, 10)}}
}

// Iterations returns the number of iterations the last completed Reorder
// performed (Table VII). Safe for concurrent use; with overlapping runs on
// one instance the last writer wins.
func (s *SlashBurn) Iterations() int {
	s.statMu.Lock()
	defer s.statMu.Unlock()
	return s.lastIterations
}

func (s *SlashBurn) setIterations(n int) {
	s.statMu.Lock()
	s.lastIterations = n
	s.statMu.Unlock()
}

// Reorder implements Algorithm: the burn polls ctx every PollEvery
// vertices it labels, so cancellation returns within one poll interval
// with the partially filled permutation.
//
// Each iteration touches only the vertices still in play, kept as a list
// in ascending ID: the GCC of the previous iteration. One DFS from each
// unlabelled vertex in that order labels the components, so labels are
// numbered by smallest vertex as in ConnectedComponents. On the way it
// counts each vertex's in-play neighbours, which sum to its component's
// edges (to pick the GCC) and, since the spokes share no edge with the
// GCC, are the GCC's degrees for the next iteration.
func (s *SlashBurn) Reorder(ctx context.Context, g *graph.Graph) (graph.Permutation, error) {
	n := g.NumVertices()
	perm := make(graph.Permutation, n)
	if n == 0 {
		return perm, nil
	}
	poll := runctl.NewPoller(ctx, cmp.Or(s.PollEvery, runctl.DefaultPollInterval))
	k := int(s.KFraction * float64(n))
	if k < 1 {
		k = 1
	}
	und := g.Undirected()
	sqrtN := math.Sqrt(float64(n))

	// play lists the vertices still being slashed in ascending ID;
	// inPlay marks them. deg holds their degrees within the in-play
	// subgraph: at first, with every vertex in play, the undirected ones.
	play := make([]uint32, n)
	inPlay := make([]bool, n)
	deg := make([]uint32, n)
	maxDeg := uint32(0)
	for v := range play {
		play[v] = uint32(v)
		inPlay[v] = true
		deg[v] = und.OutDegree(uint32(v))
		maxDeg = max(maxDeg, deg[v])
	}

	front := uint32(0) // next low ID (hubs)
	back := n          // IDs (back..n-1) already assigned to spokes
	burnDeg := make([]uint32, n)
	labels := make([]uint32, n)
	var (
		members []uint32 // component members, component by component
		starts  []int    // component c's members are members[starts[c]:starts[c+1]]
		edges   []uint64 // edges (both directions) inside each component
		stack   []uint32
		spokes  []uint32
	)

	iter := 0
	for {
		iter++
		// Stopping rules: classic (remaining ≤ k) or SB++ (max degree
		// below √|V|) or iteration bound.
		stop := len(play) <= k ||
			(s.StopAtSqrtDegree && float64(maxDeg) < sqrtN) ||
			(s.MaxIterations > 0 && iter > s.MaxIterations) ||
			(s.CacheBytes > 0 && uint64(front)*8 >= s.CacheBytes)
		if stop {
			sortByDegreeDesc(play, deg)
			for _, v := range play {
				perm[v] = front
				front++
			}
			break
		}

		// Slash: remove the k highest-degree in-play vertices (more than
		// k remain, or the classic rule stopped), hubs get consecutive
		// low IDs in degree order.
		for _, h := range topKByDegree(play, deg, maxDeg, k) {
			perm[h] = front
			front++
			inPlay[h] = false
		}

		// Burn: components of the remainder, and each vertex's degree in
		// it (burnDeg).
		for _, v := range play {
			labels[v] = graph.NoVertex
		}
		members, starts, edges = members[:0], starts[:0], edges[:0]
		for _, root := range play {
			if !inPlay[root] || labels[root] != graph.NoVertex {
				continue
			}
			c := uint32(len(starts))
			starts = append(starts, len(members))
			var e uint64
			labels[root] = c
			stack = append(stack[:0], root)
			for len(stack) > 0 {
				if err := poll.Check(); err != nil {
					// Fill the unassigned middle of the ID space with
					// the still-in-play vertices in original order so the
					// partial result is a valid permutation.
					for _, u := range play {
						if inPlay[u] {
							perm[u] = front
							front++
						}
					}
					s.setIterations(iter)
					return perm, err
				}
				v := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				members = append(members, v)
				d := uint32(0)
				for _, u := range und.OutNeighbors(v) {
					if !inPlay[u] {
						continue
					}
					d++
					if labels[u] == graph.NoVertex {
						labels[u] = c
						stack = append(stack, u)
					}
				}
				burnDeg[v] = d
				e += uint64(d)
			}
			edges = append(edges, e)
		}
		numComp := uint32(len(starts))
		if numComp == 0 {
			break // every vertex left was a hub
		}
		starts = append(starts, len(members))
		// The GCC is the component with the most edges (the paper's
		// "community with the largest number of edges", §IV-A); ties go
		// to the smaller label.
		gcc := uint32(0)
		for c := uint32(1); c < numComp; c++ {
			if edges[c] > edges[gcc] {
				gcc = c
			}
		}
		comp := func(c uint32) []uint32 { return members[starts[c]:starts[c+1]] }

		// Spokes (non-giant components) get IDs from the back, smallest
		// components at the highest IDs, matching SlashBurn's spoke
		// ordering; ties: smaller label first.
		spokes = spokes[:0]
		for c := uint32(0); c < numComp; c++ {
			if c != gcc {
				spokes = append(spokes, c)
			}
		}
		slices.SortFunc(spokes, func(a, b uint32) int {
			if la, lb := len(comp(a)), len(comp(b)); la != lb {
				return cmp.Compare(la, lb)
			}
			return cmp.Compare(a, b)
		})
		// Assign from the back: the first (smallest) spoke occupies the
		// highest remaining IDs. Within a component, degree-descending
		// by the degrees this iteration started with.
		for _, c := range spokes {
			ms := comp(c)
			sortByDegreeDesc(ms, deg)
			for i := len(ms) - 1; i >= 0; i-- {
				back--
				perm[ms[i]] = back
				inPlay[ms[i]] = false
			}
		}

		// The GCC, in ascending ID, is the next iteration's play list,
		// with its burn degrees.
		next := play[:0]
		maxDeg = 0
		for _, v := range play {
			if inPlay[v] {
				next = append(next, v)
				maxDeg = max(maxDeg, burnDeg[v])
			}
		}
		play = next
		deg, burnDeg = burnDeg, deg

		if s.OnIteration != nil {
			gccDeg := make([]uint32, len(play))
			for i, v := range play {
				gccDeg[i] = deg[v]
			}
			s.OnIteration(iter, gccDeg)
		}
	}
	s.setIterations(iter)
	return perm, nil
}

// sortByDegreeDesc sorts vs by degree descending (ties: ascending ID).
func sortByDegreeDesc(vs, deg []uint32) {
	slices.SortFunc(vs, func(a, b uint32) int {
		if deg[a] != deg[b] {
			return cmp.Compare(deg[b], deg[a])
		}
		return cmp.Compare(a, b)
	})
}

// topKByDegree returns the k vertices of play (ascending IDs, degrees at
// most maxDeg, more than k of them) with the highest degree, in
// degree-descending order (ties: ascending ID). A degree histogram finds
// the threshold degree t, so only the k hubs are sorted: every vertex above
// t, and the lowest-ID vertices at t.
func topKByDegree(play, deg []uint32, maxDeg uint32, k int) []uint32 {
	hist := make([]int, maxDeg+1)
	for _, v := range play {
		hist[deg[v]]++
	}
	t, above := maxDeg, 0 // above counts the vertices with degree > t
	for above+hist[t] < k {
		above += hist[t]
		t--
	}
	atT := k - above // how many of the degree-t vertices are hubs
	hubs := make([]uint32, 0, k)
	for _, v := range play {
		if d := deg[v]; d > t || (d == t && atT > 0) {
			if d == t {
				atT--
			}
			hubs = append(hubs, v)
		}
	}
	sortByDegreeDesc(hubs, deg)
	return hubs
}
