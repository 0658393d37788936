package reorder

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strconv"
	"sync"

	"graphlocality/internal/graph"
	"graphlocality/internal/runctl"
)

// RabbitOrder implements the Rabbit-Order reordering (Arai et al.,
// IPDPS'16) as the paper describes it (§IV-B): communities are grown
// bottom-up by merging each vertex, in ascending order of initial degree,
// into the neighbouring community with the maximum modularity gain
//
//	ΔQ(u,v) = 2·( w(u,v)/(2m) − (str(u)·str(v))/(2m)² )
//
// over the undirected weighted view of the graph (initial edge weight 1;
// merged communities accumulate edge weights, and parallel edges created
// by a merge add up). A vertex with no positive-gain neighbour becomes a
// top-level community root. The second phase performs a DFS over each
// community's merge tree (the dendrogram) and assigns new IDs in preorder,
// so vertices of the same community receive consecutive IDs.
//
// The paper's Rabbit-Order is parallel and nondeterministic (±5% between
// runs, one fixed output used for all experiments); this implementation is
// sequential and deterministic, which is equivalent to fixing one output.
type RabbitOrder struct {
	// MinDegree/MaxDegree restrict merging to vertices whose undirected
	// degree lies in [MinDegree, MaxDegree] — the paper's "efficacy degree
	// range" (EDR) optimization (§VIII-B2). Zero values mean unrestricted.
	MinDegree, MaxDegree uint32
	// MaxCommunitySize, when non-zero, caps the vertex count of a merged
	// community — the cache-aware variant the paper proposes in §VIII-C
	// ("RO can use cache size as an indicator of the maximum number of
	// vertices in a community"). A natural setting is
	// cacheBytes / 8 vertex-data entries.
	MaxCommunitySize uint32
	// PollEvery is the cooperative-cancellation granularity of Reorder,
	// in merge-loop visits (0 = runctl.DefaultPollInterval).
	PollEvery int

	statMu             sync.Mutex // guards lastCommunitySizes
	lastCommunitySizes []uint32
}

// CommunitySizes returns the vertex count of every top-level community
// formed by the last completed Reorder call (eligible vertices only), in
// root-ID order. Safe for concurrent use; with overlapping runs on one
// instance the last writer wins.
func (r *RabbitOrder) CommunitySizes() []uint32 {
	r.statMu.Lock()
	defer r.statMu.Unlock()
	return r.lastCommunitySizes
}

// Name implements Algorithm.
func (r *RabbitOrder) Name() string {
	base := "RO"
	if r.MinDegree != 0 || r.MaxDegree != 0 {
		base = "RO-EDR"
	} else if r.MaxCommunitySize != 0 {
		base = "RO-CA"
	}
	return displayName(base, r.params()...)
}

// Spec implements Algorithm.
func (r *RabbitOrder) Spec() string { return specOf("ro", r.params()...) }

// params returns the non-default parameters. The cache-aware cap is
// reported as the cachebytes value that yields it (8 bytes of vertex
// data per vertex).
func (r *RabbitOrder) params() []Param {
	var params []Param
	if r.MinDegree != 0 || r.MaxDegree != 0 {
		params = append(params, Param{OptEDR, fmt.Sprintf("%d-%d", r.MinDegree, r.MaxDegree)})
	}
	if r.MaxCommunitySize != 0 {
		params = append(params, Param{OptCacheBytes, strconv.FormatUint(8*uint64(r.MaxCommunitySize), 10)})
	}
	return params
}

// Reorder implements Algorithm: the community-merge loop polls ctx every
// PollEvery visited vertices. On cancellation the dendrogram built so far
// is still flattened into a valid permutation, so the partial result
// clusters whatever communities had formed.
func (r *RabbitOrder) Reorder(ctx context.Context, g *graph.Graph) (graph.Permutation, error) {
	n := g.NumVertices()
	if n == 0 {
		return graph.Permutation{}, nil
	}
	poll := runctl.NewPoller(ctx, cmp.Or(r.PollEvery, runctl.DefaultPollInterval))
	und := g.Undirected()

	// EDR filtering: eligible vertices participate in community growth.
	eligible := make([]bool, n)
	restricted := r.MinDegree != 0 || r.MaxDegree != 0
	maxDeg := r.MaxDegree
	if maxDeg == 0 {
		maxDeg = ^uint32(0)
	}
	numEligible := uint32(0)
	for v := uint32(0); v < n; v++ {
		d := und.OutDegree(v)
		if !restricted || (d >= r.MinDegree && d <= maxDeg) {
			eligible[v] = true
			numEligible++
		}
	}

	// Weighted adjacency between live communities, restricted to eligible
	// vertices. A community's edges are the non-self eligible entries of
	// its root's und row (weight 1 each), plus the (community, weight)
	// pairs of every community merged into it. Entries name the community
	// as it was when they were recorded; find maps them to the live one.
	// str[v] = total incident weight (community strength). Weights are
	// integer-valued float64s, so every sum is exact in any order.
	str := make([]float64, n)
	var m2 float64 // 2m = total degree weight
	for v := uint32(0); v < n; v++ {
		if !eligible[v] {
			continue
		}
		for _, u := range und.OutNeighbors(v) {
			if u != v && eligible[u] {
				str[v]++
			}
		}
		m2 += str[v]
	}
	if m2 == 0 {
		m2 = 1 // avoid division by zero; gains all become non-positive
	}
	type edge struct {
		c uint32
		w float64
	}
	merged := make([][]edge, n)

	// Union-find over communities.
	parent := make([]uint32, n)
	for i := range parent {
		parent[i] = uint32(i)
	}
	find := func(x uint32) uint32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}

	// Dendrogram: the children of each community in merge order, as a
	// first-child / next-sibling list.
	firstChild := make([]uint32, n)
	lastChild := make([]uint32, n)
	nextSibling := make([]uint32, n)
	for i := range firstChild {
		firstChild[i] = graph.NoVertex
		nextSibling[i] = graph.NoVertex
	}
	// Community vertex counts for the MaxCommunitySize cap.
	size := make([]uint32, n)
	for i := range size {
		size[i] = 1
	}

	// Visit vertices in ascending initial degree (ties: ascending ID).
	degs := make([]uint32, n)
	for v := uint32(0); v < n; v++ {
		degs[v] = und.OutDegree(v)
	}
	visitOrder := graph.VerticesByDegreeAsc(degs)

	// acc[c] sums the visited community's edge weight to community c over
	// the communities in touched; every weight is positive, so acc[c] == 0
	// means c is not yet touched.
	acc := make([]float64, n)
	var touched []uint32
	add := func(c uint32, w float64) {
		if acc[c] == 0 {
			touched = append(touched, c)
		}
		acc[c] += w
	}

	var cancelErr error
	for _, v := range visitOrder {
		if cancelErr = poll.Check(); cancelErr != nil {
			break // flatten the dendrogram built so far
		}
		if !eligible[v] || find(v) != v {
			continue // outside the EDR, or already absorbed
		}
		// Sum the weight to every neighbour community.
		touched = touched[:0]
		for _, u := range und.OutNeighbors(v) {
			if u != v && eligible[u] {
				if c := find(u); c != v {
					add(c, 1)
				}
			}
		}
		for _, e := range merged[v] {
			if c := find(e.c); c != v {
				add(c, e.w)
			}
		}
		// The neighbour community with the maximum gain; ties go to the
		// lowest community ID.
		best := graph.NoVertex
		bestGain := 0.0
		for _, c := range touched {
			if r.MaxCommunitySize > 0 && size[v]+size[c] > r.MaxCommunitySize {
				continue
			}
			gain := 2 * (acc[c]/m2 - (str[v]*str[c])/(m2*m2))
			if gain > bestGain || (gain == bestGain && best != graph.NoVertex && c < best) {
				bestGain = gain
				best = c
			}
		}
		if best == graph.NoVertex {
			// v stays a top-level community root.
			for _, c := range touched {
				acc[c] = 0
			}
			continue
		}
		// Merge v into best: hand over v's edges to every other community
		// and drop the internal edge.
		es := slices.Grow(merged[best], len(touched)-1)
		for _, c := range touched {
			if c != best {
				es = append(es, edge{c, acc[c]})
			}
			acc[c] = 0
		}
		merged[best] = es
		merged[v] = nil
		str[best] += str[v]
		size[best] += size[v]
		parent[v] = best
		if firstChild[best] == graph.NoVertex {
			firstChild[best] = v
		} else {
			nextSibling[lastChild[best]] = v
		}
		lastChild[best] = v
	}

	// Phase 2: DFS preorder ID assignment from each top-level root,
	// children in merge order. A root has no siblings, so the preorder of
	// its first-child / next-sibling tree is exactly its subtree.
	perm := make(graph.Permutation, n)
	var next uint32
	var stack []uint32
	assigned := make([]bool, n)
	var communitySizes []uint32
	for v := uint32(0); v < n; v++ {
		if !eligible[v] || find(v) != v {
			continue
		}
		communitySizes = append(communitySizes, size[v])
		stack = append(stack[:0], v)
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			assigned[x] = true
			perm[x] = next
			next++
			if s := nextSibling[x]; s != graph.NoVertex {
				stack = append(stack, s)
			}
			if c := firstChild[x]; c != graph.NoVertex {
				stack = append(stack, c)
			}
		}
	}
	// Ineligible (outside-EDR) vertices keep relative order at the tail,
	// like zero-degree vertices.
	for v := uint32(0); v < n; v++ {
		if !assigned[v] {
			perm[v] = next
			next++
		}
	}
	r.statMu.Lock()
	r.lastCommunitySizes = communitySizes
	r.statMu.Unlock()
	return perm, cancelErr
}
