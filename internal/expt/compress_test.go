package expt

import (
	"testing"

	"graphlocality/internal/graph"
	"graphlocality/internal/reorder"
)

// TestCompressionMetamorphic pins the ordering↔compression claim behind
// the bytes/edge metric: a locality-improving reordering pulls
// neighbours together in ID space, so the delta-gap + varint encoding of
// the reordered graph can never cost more bytes per edge than a random
// relabeling of the same graph. Every registered RA must beat (or tie,
// for degenerate cases) the random baseline on the standard suite —
// metamorphic because only the labeling changes, never the graph.
//
// One parallel subtest per dataset, all sharing one Session (its memos
// are safe for concurrent use), so the datasets' reorderings overlap.
func TestCompressionMetamorphic(t *testing.T) {
	if testing.Short() {
		t.Skip("standard suite is too heavy for -short")
	}
	s := NewSession()
	random := reorder.MustNew("random")
	for _, ds := range Suite(Standard) {
		t.Run(ds.Name, func(t *testing.T) {
			t.Parallel()
			baseline := graph.MeasureSegmented(s.Relabeled(ds, random), graph.SegmentedOptions{}).BytesPerEdge()
			if baseline <= 0 {
				t.Fatalf("random baseline bytes/edge = %v", baseline)
			}
			for _, alg := range GlobalAlgorithms() {
				if alg.Name() == "random" {
					continue
				}
				got := graph.MeasureSegmented(s.Relabeled(ds, alg), graph.SegmentedOptions{}).BytesPerEdge()
				// 0.5% headroom: on the hub-free uniform control some RAs are
				// effectively another random labeling and land within noise of
				// the baseline; the claim is "no worse", not "strictly better".
				if got > baseline*1.005 {
					t.Errorf("%s: bytes/edge %.4f exceeds random baseline %.4f",
						alg.Name(), got, baseline)
				}
			}
		})
	}
}
