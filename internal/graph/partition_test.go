package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPartitionCoversAllVertices(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(1)), 100, 500)
	for _, p := range []int{1, 2, 3, 7, 16, 200} {
		ranges := g.PartitionEdgeBalancedOut(p)
		var covered uint32
		for i, r := range ranges {
			if r.Lo != covered {
				t.Fatalf("p=%d: range %d starts at %d, want %d", p, i, r.Lo, covered)
			}
			if r.Hi <= r.Lo {
				t.Fatalf("p=%d: empty range %d: %+v", p, i, r)
			}
			covered = r.Hi
		}
		if covered != g.NumVertices() {
			t.Fatalf("p=%d: partitions cover %d of %d vertices", p, covered, g.NumVertices())
		}
	}
}

func TestPartitionEdgeBalance(t *testing.T) {
	// A skewed graph: vertex 0 has most edges. Partitions must still
	// roughly balance edge counts.
	edges := []Edge{}
	for i := uint32(1); i < 1000; i++ {
		edges = append(edges, Edge{0, i})
	}
	for i := uint32(1); i < 500; i++ {
		edges = append(edges, Edge{i, i + 1})
	}
	g := FromEdges(1000, edges)
	ranges := g.PartitionEdgeBalancedOut(4)
	if len(ranges) < 2 {
		t.Fatalf("got %d ranges", len(ranges))
	}
	// First partition holds the hub and should be a single vertex or few.
	if ranges[0].Len() > 500 {
		t.Errorf("hub partition too wide: %+v", ranges[0])
	}
}

func TestPartitionSmallGraph(t *testing.T) {
	g := FromEdges(2, []Edge{{0, 1}})
	ranges := g.PartitionEdgeBalancedOut(8)
	if len(ranges) > 2 {
		t.Errorf("more ranges than vertices: %d", len(ranges))
	}
	var covered uint32
	for _, r := range ranges {
		covered += r.Len()
	}
	if covered != 2 {
		t.Errorf("coverage = %d", covered)
	}
}

func TestPartitionInDirection(t *testing.T) {
	g := FromEdges(4, []Edge{{0, 3}, {1, 3}, {2, 3}})
	ranges := g.PartitionEdgeBalancedIn(2)
	var covered uint32
	for _, r := range ranges {
		covered += r.Len()
	}
	if covered != 4 {
		t.Errorf("in-partition coverage = %d", covered)
	}
}

// Property: any partitioning is a disjoint contiguous cover, and with p
// parts, each part's edge count is at most ~(|E|/p + maxdeg).
func TestPartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := uint32(rng.Intn(200) + 1)
		g := randomGraph(rng, n, rng.Intn(1000))
		p := rng.Intn(10) + 1
		ranges := g.PartitionEdgeBalancedOut(p)
		var covered uint32
		maxDeg := uint64(g.Reverse().MaxInDegree())
		bound := g.NumEdges()/uint64(p) + maxDeg + 1
		for _, r := range ranges {
			if r.Lo != covered {
				return false
			}
			covered = r.Hi
			var e uint64
			for v := r.Lo; v < r.Hi; v++ {
				e += uint64(g.OutDegree(v))
			}
			// The last range may absorb the remainder; others obey the bound.
			if r.Hi != n && e > bound {
				return false
			}
		}
		return covered == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
