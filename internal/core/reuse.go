package core

import (
	"graphlocality/internal/graph"
	"graphlocality/internal/trace"
)

// ReuseProfile is a histogram of reuse (stack) distances at cache-line
// granularity: Buckets[i] counts accesses whose reuse distance d satisfies
// 2^i ≤ d < 2^(i+1) (bucket 0 covers distance 0–1). Cold (first-touch)
// accesses are counted separately. Reuse distance curves are the
// established whole-program locality metric the paper contrasts its
// finer-grained tools with (§I).
type ReuseProfile struct {
	Buckets []uint64
	Cold    uint64
	Total   uint64
}

// ReuseDistances computes the reuse-distance profile of the random
// vertex-data accesses of one SpMV traversal over g, at the given
// line-size granularity. Exact stack distances are computed with a
// Fenwick tree over access timestamps in O(N log N).
func ReuseDistances(g *graph.Graph, dir trace.Direction, lineSize int) ReuseProfile {
	layout := trace.NewLayout(g)
	var p ReuseProfile
	p.Buckets = make([]uint64, 40)

	lastPos := make(map[uint64]int) // line -> last access position
	n := int(trace.CountAccesses(g))
	bit := newFenwick(n + 1)
	pos := 0

	trace.Run(g, layout, trace.Whole(g, dir), func(a trace.Access) bool {
		if a.Kind != trace.KindVertexRead && a.Kind != trace.KindVertexWrite {
			return true
		}
		line := a.Addr / uint64(lineSize)
		p.Total++
		if lp, ok := lastPos[line]; ok {
			// Distinct lines touched since last access = sum of "last
			// occurrence" markers in (lp, pos).
			d := bit.sum(pos) - bit.sum(lp)
			p.Buckets[log2Bucket(uint64(d))]++
			bit.add(lp+1, -1) // line's previous position is no longer its last
		} else {
			p.Cold++
		}
		pos++
		lastPos[line] = pos - 1
		bit.add(pos, +1)
		return true
	})
	return p
}

// MeanReuseDistance returns the mean finite reuse distance (cold misses
// excluded); 0 when there are no reuses.
func (p ReuseProfile) MeanReuseDistance() float64 {
	var wsum float64
	var cnt uint64
	for i, c := range p.Buckets {
		if c == 0 {
			continue
		}
		mid := float64(uint64(1) << uint(i)) // representative distance
		wsum += mid * float64(c)
		cnt += c
	}
	if cnt == 0 {
		return 0
	}
	return wsum / float64(cnt)
}

func log2Bucket(d uint64) int {
	b := 0
	for d > 1 {
		d >>= 1
		b++
	}
	return b
}

// fenwick is a classic binary indexed tree over positions 1..n.
type fenwick struct {
	t []int
}

func newFenwick(n int) *fenwick { return &fenwick{t: make([]int, n+1)} }

func (f *fenwick) add(i, delta int) {
	for ; i < len(f.t); i += i & (-i) {
		f.t[i] += delta
	}
}

// sum returns the prefix sum over positions 1..i.
func (f *fenwick) sum(i int) int {
	s := 0
	for ; i > 0; i -= i & (-i) {
		s += f.t[i]
	}
	return s
}
