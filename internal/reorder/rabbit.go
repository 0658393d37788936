package reorder

import (
	"context"
	"fmt"
	"sort"
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

func init() {
	MustRegister(Registration{
		Name:        "ro",
		Aliases:     []string{"rabbit", "rabbitorder"},
		Description: "Rabbit-Order: modularity-greedy community growth + dendrogram DFS (IPDPS'16)",
		Class:       ClassHeavy,
		Accepts:     []string{OptEDR, OptCacheBytes},
		New: func(p Params) (Algorithm, error) {
			lo, hi, err := p.EDR()
			if err != nil {
				return nil, err
			}
			cacheBytes, err := p.CacheBytes()
			return &RabbitOrder{
				MinDegree:        lo,
				MaxDegree:        hi,
				MaxCommunitySize: uint32(cacheBytes / 8),
			}, err
		},
	})
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
	if r.MinDegree != 0 || r.MaxDegree != 0 {
		return "RO-EDR"
	}
	if r.MaxCommunitySize != 0 {
		return "RO-CA"
	}
	return "RO"
}

// Spec implements Algorithm. The cache-aware cap is reported as the
// cachebytes value that yields it (8 bytes of vertex data per vertex).
func (r *RabbitOrder) Spec() string {
	var params []Param
	if r.MinDegree != 0 || r.MaxDegree != 0 {
		params = append(params, Param{OptEDR, fmt.Sprintf("%d-%d", r.MinDegree, r.MaxDegree)})
	}
	if r.MaxCommunitySize != 0 {
		params = append(params, Param{OptCacheBytes, strconv.FormatUint(8*uint64(r.MaxCommunitySize), 10)})
	}
	return specOf("ro", params...)
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
	poll := runctl.NewPoller(ctx, r.PollEvery)
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
	// vertices. str[v] = total incident weight (community strength).
	adj := make([]map[uint32]float64, n)
	var m2 float64 // 2m = total degree weight
	for v := uint32(0); v < n; v++ {
		if !eligible[v] {
			continue
		}
		for _, u := range und.OutNeighbors(v) {
			if u == v || !eligible[u] {
				continue
			}
			if adj[v] == nil {
				adj[v] = make(map[uint32]float64, und.OutDegree(v))
			}
			adj[v][u]++
			m2++
		}
	}
	if m2 == 0 {
		m2 = 1 // avoid division by zero; gains all become non-positive
	}
	str := make([]float64, n)
	for v := uint32(0); v < n; v++ {
		for _, w := range adj[v] {
			str[v] += w
		}
	}

	// Union-find over communities.
	parent := make([]uint32, n)
	for i := range parent {
		parent[i] = uint32(i)
	}
	var find func(uint32) uint32
	find = func(x uint32) uint32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}

	// Dendrogram: children of each community in merge order.
	children := make([][]uint32, n)
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

	var cancelErr error
	for _, v := range visitOrder {
		if cancelErr = poll.Check(); cancelErr != nil {
			break // flatten the dendrogram built so far
		}
		if !eligible[v] {
			continue
		}
		cv := find(v)
		if cv != v {
			continue // already absorbed into a community
		}
		// Find the neighbour community with maximum gain.
		var best uint32
		bestGain := 0.0
		found := false
		// Deterministic iteration: collect and sort neighbour communities.
		type cand struct {
			c uint32
			w float64
		}
		cands := make([]cand, 0, len(adj[cv]))
		merged := make(map[uint32]float64, len(adj[cv]))
		for u, w := range adj[cv] {
			cu := find(u)
			if cu == cv {
				continue
			}
			merged[cu] += w
		}
		for c, w := range merged {
			cands = append(cands, cand{c, w})
		}
		sort.Slice(cands, func(i, j int) bool { return cands[i].c < cands[j].c })
		for _, cd := range cands {
			if r.MaxCommunitySize > 0 && size[cv]+size[cd.c] > r.MaxCommunitySize {
				continue
			}
			gain := 2 * (cd.w/m2 - (str[cv]*str[cd.c])/(m2*m2))
			if gain > bestGain {
				bestGain = gain
				best = cd.c
				found = true
			}
		}
		if !found {
			continue // v stays a top-level community root
		}
		// Merge cv into best: move cv's edges, drop the internal edge.
		cu := best
		if adj[cu] == nil {
			adj[cu] = make(map[uint32]float64)
		}
		for x, w := range adj[cv] {
			cx := find(x)
			if cx == cu || cx == cv {
				continue
			}
			adj[cu][x] += w
		}
		delete(adj[cu], cv)
		// Remove stale references to members of cv lazily: find() handles
		// them on later reads.
		adj[cv] = nil
		str[cu] += str[cv]
		size[cu] += size[cv]
		parent[cv] = cu
		children[cu] = append(children[cu], cv)
	}

	// Phase 2: DFS preorder ID assignment from each top-level root.
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
		// Iterative DFS, children visited in merge order.
		stack = append(stack[:0], v)
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if assigned[x] {
				continue
			}
			assigned[x] = true
			perm[x] = next
			next++
			// Push children reversed so the earliest-merged child is
			// visited first.
			ch := children[x]
			for i := len(ch) - 1; i >= 0; i-- {
				stack = append(stack, ch[i])
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
