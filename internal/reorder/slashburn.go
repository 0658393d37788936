package reorder

import (
	"context"
	"math"
	"sort"
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

func init() {
	MustRegister(Registration{
		Name:        "sb",
		Aliases:     []string{"slashburn"},
		Description: "SlashBurn: iterative hub removal + GCC ordering (paper §IV-A)",
		Class:       ClassHeavy,
		Accepts:     []string{OptCacheBytes},
		New: func(p Params) (Algorithm, error) {
			cacheBytes, err := p.CacheBytes()
			return &SlashBurn{KFraction: 0.02, CacheBytes: cacheBytes}, err
		},
	})
	MustRegister(Registration{
		Name:        "sb++",
		Aliases:     []string{"slashburn++"},
		Description: "SlashBurn++: SlashBurn with early stopping at max degree sqrt(|V|)",
		Class:       ClassHeavy,
		New: func(Params) (Algorithm, error) {
			return &SlashBurn{KFraction: 0.02, StopAtSqrtDegree: true}, nil
		},
	})
}

// Name implements Algorithm.
func (s *SlashBurn) Name() string {
	if s.StopAtSqrtDegree {
		return "SB++"
	}
	if s.CacheBytes > 0 {
		return "SB-CA"
	}
	return "SB"
}

// Spec implements Algorithm. KFraction and MaxIterations have no spec
// keys; the registry always builds the paper's k = 0.02·|V|, unbounded.
func (s *SlashBurn) Spec() string {
	name := "sb"
	if s.StopAtSqrtDegree {
		name = "sb++"
	}
	if s.CacheBytes == 0 {
		return name
	}
	return name + ":cachebytes=" + strconv.FormatUint(s.CacheBytes, 10)
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

// Reorder implements Algorithm: the per-iteration degree sweep polls ctx
// every PollEvery vertices, so cancellation returns within one poll
// interval with the partially filled permutation.
func (s *SlashBurn) Reorder(ctx context.Context, g *graph.Graph) (graph.Permutation, error) {
	n := g.NumVertices()
	perm := make(graph.Permutation, n)
	if n == 0 {
		return perm, nil
	}
	poll := runctl.NewPoller(ctx, s.PollEvery)
	k := int(s.KFraction * float64(n))
	if k < 1 {
		k = 1
	}
	und := g.Undirected()
	sqrtN := math.Sqrt(float64(n))

	// inPlay marks vertices still being slashed (current GCC ∪ not yet
	// processed); removed marks vertices already given an ID.
	inPlay := make([]bool, n)
	for i := range inPlay {
		inPlay[i] = true
	}
	playCount := int(n)

	front := uint32(0) // next low ID (hubs)
	back := n          // IDs (back..n-1) already assigned to spokes
	deg := make([]uint32, n)

	assignFront := func(v uint32) {
		perm[v] = front
		front++
		inPlay[v] = false
		playCount--
	}

	iter := 0
	for playCount > 0 {
		iter++
		// Degrees within the remaining (in-play) subgraph.
		maxDeg := uint32(0)
		for v := uint32(0); v < n; v++ {
			if err := poll.Check(); err != nil {
				// Fill the unassigned middle of the ID space with the
				// still-in-play vertices in original order so the partial
				// result is a valid permutation.
				for u := uint32(0); u < n; u++ {
					if inPlay[u] {
						perm[u] = front
						front++
					}
				}
				s.setIterations(iter)
				return perm, err
			}
			deg[v] = 0
			if !inPlay[v] {
				continue
			}
			for _, u := range und.OutNeighbors(v) {
				if inPlay[u] {
					deg[v]++
				}
			}
			if deg[v] > maxDeg {
				maxDeg = deg[v]
			}
		}

		// Stopping rules: classic (remaining ≤ k) or SB++ (max degree
		// below √|V|) or iteration bound.
		stop := playCount <= k ||
			(s.StopAtSqrtDegree && float64(maxDeg) < sqrtN) ||
			(s.MaxIterations > 0 && iter > s.MaxIterations) ||
			(s.CacheBytes > 0 && uint64(front)*8 >= s.CacheBytes)
		if stop {
			s.finishRemaining(perm, inPlay, deg, &front)
			playCount = 0
			break
		}

		// Slash: remove the k highest-degree in-play vertices, hubs get
		// consecutive low IDs in degree order.
		hubs := topKByDegree(inPlay, deg, k)
		for _, h := range hubs {
			assignFront(h)
		}

		// Burn: components of the remainder. Spokes (non-giant
		// components) get IDs from the back, smallest components at the
		// highest IDs, matching SlashBurn's spoke ordering.
		removedView := make([]bool, n)
		for v := uint32(0); v < n; v++ {
			removedView[v] = !inPlay[v]
		}
		labels, numComp := und.ComponentsExcluding(removedView)
		if numComp == 0 {
			break
		}
		gcc := und.GiantComponent(labels, numComp)

		comps := make([][]uint32, numComp)
		for v := uint32(0); v < n; v++ {
			if inPlay[v] && labels[v] != graph.NoVertex {
				comps[labels[v]] = append(comps[labels[v]], v)
			}
		}
		// Non-giant components sorted by size ascending; tie: smaller
		// label first.
		spokes := make([]uint32, 0, numComp)
		for c := uint32(0); c < numComp; c++ {
			if c != gcc && len(comps[c]) > 0 {
				spokes = append(spokes, c)
			}
		}
		sort.Slice(spokes, func(i, j int) bool {
			a, b := spokes[i], spokes[j]
			if len(comps[a]) != len(comps[b]) {
				return len(comps[a]) < len(comps[b])
			}
			return a < b
		})
		// Assign from the back: the first (smallest) spoke occupies the
		// highest remaining IDs. Within a component, degree-descending.
		for _, c := range spokes {
			members := comps[c]
			sort.Slice(members, func(i, j int) bool {
				a, b := members[i], members[j]
				if deg[a] != deg[b] {
					return deg[a] > deg[b]
				}
				return a < b
			})
			for i := len(members) - 1; i >= 0; i-- {
				back--
				perm[members[i]] = back
				inPlay[members[i]] = false
				playCount--
			}
		}

		if s.OnIteration != nil {
			gccDeg := make([]uint32, 0, len(comps[gcc]))
			for _, v := range comps[gcc] {
				d := uint32(0)
				for _, u := range und.OutNeighbors(v) {
					if inPlay[u] {
						d++
					}
				}
				gccDeg = append(gccDeg, d)
			}
			s.OnIteration(iter, gccDeg)
		}
	}
	s.setIterations(iter)
	return perm, nil
}

// finishRemaining assigns the remaining in-play vertices consecutive front
// IDs in degree-descending order.
func (s *SlashBurn) finishRemaining(perm graph.Permutation, inPlay []bool, deg []uint32, front *uint32) {
	var rest []uint32
	for v := range inPlay {
		if inPlay[v] {
			rest = append(rest, uint32(v))
		}
	}
	sort.Slice(rest, func(i, j int) bool {
		a, b := rest[i], rest[j]
		if deg[a] != deg[b] {
			return deg[a] > deg[b]
		}
		return a < b
	})
	for _, v := range rest {
		perm[v] = *front
		*front++
		inPlay[v] = false
	}
}

// topKByDegree returns the k in-play vertices with the highest degree, in
// degree-descending order (ties: ascending ID).
func topKByDegree(inPlay []bool, deg []uint32, k int) []uint32 {
	var cands []uint32
	for v := range inPlay {
		if inPlay[v] {
			cands = append(cands, uint32(v))
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if deg[a] != deg[b] {
			return deg[a] > deg[b]
		}
		return a < b
	})
	if len(cands) > k {
		cands = cands[:k]
	}
	return cands
}
