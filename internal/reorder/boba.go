package reorder

import (
	"context"
	"math/bits"
	"runtime"
	"strconv"
	"sync"

	"graphlocality/internal/graph"
)

// Boba is the sort-free *parallel* lightweight reordering (after BOBA,
// arXiv 2306.10410): vertices are binned into the same power-of-two degree
// classes as DBG, but the bucketing runs as a two-pass parallel counting
// sort — a per-worker histogram pass, one serial prefix over
// (bucket, worker) cells, and a parallel scatter pass. Because workers own
// contiguous ascending vertex ranges and the prefix lays cells out
// bucket-major (highest class first) then worker-minor, every vertex lands
// at the position the serial stable bucketing gives it: the output is
// bit-identical to DBG at every worker count, which is the intra-bucket
// tie-break contract (original ID order) the differential tests pin.
//
// Spec grammar: boba:workers=N,seed=S. workers=0 (the default) sizes the
// pool from GOMAXPROCS at run time, so a runtime GOMAXPROCS change is
// picked up per call; seed is accepted for sweep-grid uniformity and
// ignored — the ordering is deterministic by construction.
type Boba struct {
	// Workers is the worker-pool size; 0 means GOMAXPROCS at run time.
	Workers int
}

// bobaGroups bounds the degree-class index: DBG's class bits.Len32 of a
// uint32 degree is 0 (degree 0) through 32.
const bobaGroups = 33

// Name implements Algorithm.
func (Boba) Name() string { return "BOBA" }

// Spec implements Algorithm. The seed key is accepted but changes
// nothing, so it is not part of the configuration.
func (b Boba) Spec() string {
	if b.Workers < 1 {
		return "boba"
	}
	return "boba:workers=" + strconv.Itoa(b.Workers)
}

// Reorder implements Algorithm; it ignores ctx and cannot fail.
func (b Boba) Reorder(_ context.Context, g *graph.Graph) (graph.Permutation, error) {
	n := int(g.NumVertices())
	deg := g.TotalDegrees()
	w := b.Workers
	if w < 1 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}

	// Pass 1 (parallel): per-worker degree-class histograms over contiguous
	// ascending vertex ranges.
	counts := make([][bobaGroups]uint32, w)
	var wg sync.WaitGroup
	wg.Add(w)
	for wk := 0; wk < w; wk++ {
		go func(wk int) {
			defer wg.Done()
			lo, hi := n*wk/w, n*(wk+1)/w
			c := &counts[wk]
			for v := lo; v < hi; v++ {
				c[bits.Len32(deg[v])]++
			}
		}(wk)
	}
	wg.Wait()

	// Serial prefix over (bucket, worker) cells, buckets from the highest
	// degree class down (DBG's layout), workers in ascending order within a
	// bucket (= ascending original ID, the stable tie-break).
	offsets := make([][bobaGroups]uint32, w)
	pos := uint32(0)
	for gr := bobaGroups - 1; gr >= 0; gr-- {
		for wk := 0; wk < w; wk++ {
			offsets[wk][gr] = pos
			pos += counts[wk][gr]
		}
	}

	// Pass 2 (parallel): scatter each worker's vertices into its
	// pre-assigned cells, preserving ascending ID order within each cell.
	order := make([]uint32, n)
	wg.Add(w)
	for wk := 0; wk < w; wk++ {
		go func(wk int) {
			defer wg.Done()
			lo, hi := n*wk/w, n*(wk+1)/w
			off := offsets[wk] // private copy to advance
			for v := lo; v < hi; v++ {
				gr := bits.Len32(deg[v])
				order[off[gr]] = uint32(v)
				off[gr]++
			}
		}(wk)
	}
	wg.Wait()
	return orderToPerm(order), nil
}
