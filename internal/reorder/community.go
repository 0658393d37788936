package reorder

import (
	"cmp"
	"context"
	"slices"

	"graphlocality/internal/graph"
	"graphlocality/internal/runctl"
)

// Communities is a partition of a graph's vertices into communities:
// Membership[v] is the community of vertex v, with IDs compact in
// [0, Count). Detectors normalize IDs so that communities are numbered by
// their smallest member vertex, which makes the partition — not just the
// grouping — deterministic.
type Communities struct {
	Membership []uint32
	Count      int
}

// Groups expands the membership into explicit per-community vertex lists
// (ascending within each community).
func (c Communities) Groups() [][]uint32 {
	groups := make([][]uint32, c.Count)
	counts := make([]int, c.Count)
	for _, cm := range c.Membership {
		counts[cm]++
	}
	for i, n := range counts {
		groups[i] = make([]uint32, 0, n)
	}
	for v, cm := range c.Membership {
		groups[cm] = append(groups[cm], uint32(v))
	}
	return groups
}

// compactBySmallestMember renumbers community labels so that community 0
// is the one containing the smallest vertex ID, community 1 the one
// containing the next-smallest vertex not yet covered, and so on. Every
// label must be below len(membership).
func compactBySmallestMember(membership []uint32) Communities {
	remap := make([]uint32, len(membership)) // label → new ID + 1; 0 = unseen
	out := make([]uint32, len(membership))
	next := uint32(0)
	for v, label := range membership {
		if remap[label] == 0 {
			next++
			remap[label] = next
		}
		out[v] = remap[label] - 1
	}
	return Communities{Membership: out, Count: int(next)}
}

// tally sums float64 weights per key below a fixed bound, remembering
// which keys it touched in first-touch order; an untouched key reads 0.
// reset clears only the touched keys, so emptying the tally after a visit
// costs that visit's degree, not the number of keys.
type tally struct {
	sum     []float64
	seen    []bool
	touched []uint32
}

func newTally(n uint32) *tally {
	return &tally{sum: make([]float64, n), seen: make([]bool, n)}
}

func (t *tally) add(k uint32, x float64) {
	if !t.seen[k] {
		t.seen[k] = true
		t.touched = append(t.touched, k)
	}
	t.sum[k] += x
}

func (t *tally) reset() {
	for _, k := range t.touched {
		t.sum[k] = 0
		t.seen[k] = false
	}
	t.touched = t.touched[:0]
}

// SingleCommunity assigns every vertex to one community — the "none"
// detector. With it, a per-community meta-algorithm degenerates to
// running one sub-algorithm globally, which is what the brew differential
// test exploits.
func SingleCommunity(g *graph.Graph) Communities {
	n := g.NumVertices()
	m := make([]uint32, n)
	count := 0
	if n > 0 {
		count = 1
	}
	return Communities{Membership: m, Count: count}
}

// wgraph is the weighted multigraph a Louvain level works on. Parallel
// edges accumulated by aggregation are pre-summed, self-loops (internal
// community weight) live in self.
type wgraph struct {
	off  []uint32
	nbr  []uint32
	wgt  []float64
	self []float64
	str  []float64 // weighted degree: sum of incident weights + 2*self
	m2   float64   // total weight: sum over str
}

func (w *wgraph) numNodes() uint32 { return uint32(len(w.off) - 1) }

func (w *wgraph) neighbors(v uint32) ([]uint32, []float64) {
	return w.nbr[w.off[v]:w.off[v+1]], w.wgt[w.off[v]:w.off[v+1]]
}

// weigh fills str and m2 from the adjacency and self weights.
func (w *wgraph) weigh() {
	n := w.numNodes()
	w.str = make([]float64, n)
	for v := uint32(0); v < n; v++ {
		for _, x := range w.wgt[w.off[v]:w.off[v+1]] {
			w.str[v] += x
		}
		w.str[v] += 2 * w.self[v]
		w.m2 += w.str[v]
	}
}

// levelGraph builds the level-0 weighted view of g: the undirected simple
// view with unit weights (each undirected edge contributing 1 in both
// directions), self-loops dropped.
func levelGraph(g *graph.Graph) *wgraph {
	und := g.Undirected()
	n := und.NumVertices()
	w := &wgraph{
		off:  make([]uint32, 1, n+1),
		nbr:  make([]uint32, 0, und.NumEdges()),
		self: make([]float64, n),
	}
	for v := uint32(0); v < n; v++ {
		for _, u := range und.OutNeighbors(v) {
			if u != v {
				w.nbr = append(w.nbr, u)
			}
		}
		w.off = append(w.off, uint32(len(w.nbr)))
	}
	w.wgt = make([]float64, len(w.nbr))
	for i := range w.wgt {
		w.wgt[i] = 1
	}
	w.weigh()
	return w
}

// localMove runs Louvain local-moving passes over w until a pass makes no
// move (or the poller cancels). comm is updated in place; visit order is a
// seeded shuffle, re-used across passes so a fixed seed fixes the output
// bit-for-bit. The vertex's own (possibly now empty) community is always a
// candidate; it keeps the vertex unless another community's gain is
// strictly higher, and ties among the others go to the smallest ID.
// Returns the number of moves made in total and the first poll error, if
// any.
func localMove(w *wgraph, comm []uint32, resolution float64, rng *splitmix, poll *runctl.Poller) (int, error) {
	n := w.numNodes()
	if n == 0 {
		return 0, nil
	}
	tot := make([]float64, n)
	for v := uint32(0); v < n; v++ {
		tot[comm[v]] += w.str[v]
	}
	visit := rng.shuffled(n)

	m2 := w.m2
	if m2 == 0 {
		return 0, nil
	}
	wTo := newTally(n) // weight from the current vertex to each community
	totalMoves := 0
	for pass := 0; pass < 32; pass++ {
		moves := 0
		for _, v := range visit {
			if err := poll.Check(); err != nil {
				return totalMoves, err
			}
			old := comm[v]
			tot[old] -= w.str[v]
			nbrs, wgts := w.neighbors(v)
			for i, u := range nbrs {
				wTo.add(comm[u], wgts[i])
			}
			// The result does not depend on the order candidates are
			// visited in: the maximum gain wins, old first on a tie, then
			// the smallest ID. An untouched old reads a zero sum.
			best := old
			bestGain := wTo.sum[old] - resolution*w.str[v]*tot[old]/m2
			for _, c := range wTo.touched {
				gain := wTo.sum[c] - resolution*w.str[v]*tot[c]/m2
				if gain > bestGain || (gain == bestGain && best != old && c < best) {
					bestGain = gain
					best = c
				}
			}
			wTo.reset()
			comm[v] = best
			tot[best] += w.str[v]
			if best != old {
				moves++
			}
		}
		totalMoves += moves
		if moves == 0 {
			break
		}
	}
	return totalMoves, nil
}

// aggregate collapses each community of w into one super-node and returns
// the next-level graph plus each node's super-node (compact, ascending by
// smallest member). Super-nodes are built one at a time from their members
// in ascending order, so every weight is summed in node order.
func aggregate(w *wgraph, comm []uint32) (*wgraph, []uint32) {
	compact := compactBySmallestMember(comm)
	sup := compact.Membership
	sn := uint32(compact.Count)
	nw := &wgraph{
		off:  make([]uint32, 1, sn+1),
		self: make([]float64, sn),
	}
	cross := newTally(sn) // weight from the current super-node to each other
	for c, members := range compact.Groups() {
		for _, v := range members {
			nw.self[c] += w.self[v]
			nbrs, wgts := w.neighbors(v)
			for i, u := range nbrs {
				if cu := sup[u]; cu != uint32(c) {
					cross.add(cu, wgts[i])
				} else {
					// Each internal edge is seen from both endpoints; halve.
					nw.self[c] += wgts[i] / 2
				}
			}
		}
		slices.Sort(cross.touched)
		for _, cu := range cross.touched {
			nw.nbr = append(nw.nbr, cu)
			nw.wgt = append(nw.wgt, cross.sum[cu])
		}
		nw.off = append(nw.off, uint32(len(nw.nbr)))
		cross.reset()
	}
	nw.weigh()
	return nw, sup
}

// DetectLouvain runs Louvain-style community detection (Blondel et al.
// 2008): repeated local-moving passes interleaved with graph aggregation,
// maximizing modularity at the given resolution (1.0 = classic; higher
// favours smaller communities). The visit order is a seeded shuffle and
// all tie-breaks are by smallest community ID, so a fixed seed fixes the
// output bit-for-bit.
//
// ctx is polled every pollEvery vertex visits (0 =
// runctl.DefaultPollInterval). On cancellation the partition built so far
// is still compacted and returned alongside ctx's error — every vertex is
// assigned exactly once regardless.
func DetectLouvain(ctx context.Context, g *graph.Graph, resolution float64, seed uint64, pollEvery int) (Communities, error) {
	n := g.NumVertices()
	if n == 0 {
		return Communities{Membership: []uint32{}}, nil
	}
	if resolution <= 0 {
		resolution = 1
	}
	poll := runctl.NewPoller(ctx, cmp.Or(pollEvery, runctl.DefaultPollInterval))
	rng := splitmix{s: seed}

	w := levelGraph(g)
	// membership[v] = current community of original vertex v.
	membership := make([]uint32, n)
	for v := range membership {
		membership[v] = uint32(v)
	}
	var pollErr error
	for level := 0; level < 16; level++ {
		comm := make([]uint32, w.numNodes())
		for i := range comm {
			comm[i] = uint32(i)
		}
		moves, err := localMove(w, comm, resolution, &rng, poll)
		if err != nil {
			pollErr = err
		}
		nw, sup := aggregate(w, comm)
		for v := range membership {
			membership[v] = sup[membership[v]]
		}
		if pollErr != nil || moves == 0 || nw.numNodes() == w.numNodes() {
			break
		}
		w = nw
	}
	return compactBySmallestMember(membership), pollErr
}

// DetectLabelProp runs asynchronous label propagation (Raghavan et al.
// 2007): every vertex repeatedly adopts the label most frequent among its
// undirected neighbours, ties broken by smallest label, in a seeded
// shuffled visit order, until a full pass changes nothing. Cheaper than
// Louvain and resolution-free; communities are whatever labels survive.
//
// Same determinism and cancellation contract as DetectLouvain.
func DetectLabelProp(ctx context.Context, g *graph.Graph, seed uint64, pollEvery int) (Communities, error) {
	n := g.NumVertices()
	if n == 0 {
		return Communities{Membership: []uint32{}}, nil
	}
	poll := runctl.NewPoller(ctx, cmp.Or(pollEvery, runctl.DefaultPollInterval))
	rng := splitmix{s: seed}
	und := g.Undirected()

	label := make([]uint32, n)
	for v := range label {
		label[v] = uint32(v)
	}
	visit := rng.shuffled(n)

	counts := newTally(n) // neighbours per label, exact in float64
	var pollErr error
	for pass := 0; pass < 32 && pollErr == nil; pass++ {
		changed := 0
		for _, v := range visit {
			if pollErr = poll.Check(); pollErr != nil {
				break
			}
			for _, u := range und.OutNeighbors(v) {
				if u != v {
					counts.add(label[u], 1)
				}
			}
			if len(counts.touched) == 0 {
				continue
			}
			// Most neighbours wins, then the smallest label: a total order,
			// so the visiting order of the candidates does not matter.
			best := label[v]
			bestCount := counts.sum[best] // 0 if own label absent
			for _, l := range counts.touched {
				if c := counts.sum[l]; c > bestCount || (c == bestCount && l < best) {
					best, bestCount = l, c
				}
			}
			counts.reset()
			if best != label[v] {
				label[v] = best
				changed++
			}
		}
		if changed == 0 {
			break
		}
	}
	return compactBySmallestMember(label), pollErr
}
