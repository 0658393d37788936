package core

import (
	"math"
	"testing"

	"graphlocality/internal/cachesim"
	"graphlocality/internal/gen"
	"graphlocality/internal/reorder"
)

func TestShardRangesPartition(t *testing.T) {
	cases := []struct {
		n      uint32
		shards int
	}{
		{0, 1}, {0, 4}, {1, 1}, {1, 8}, {7, 3}, {100, 1}, {100, 7}, {100, 100}, {100, 200}, {5, 0},
	}
	for _, c := range cases {
		ranges := ShardRanges(c.n, c.shards)
		if len(ranges) == 0 {
			t.Fatalf("ShardRanges(%d, %d) returned no ranges", c.n, c.shards)
		}
		if c.shards >= 1 && len(ranges) > c.shards {
			t.Errorf("ShardRanges(%d, %d) returned %d ranges", c.n, c.shards, len(ranges))
		}
		// Contiguous, non-overlapping, covering [0, n).
		lo := uint32(0)
		for _, r := range ranges {
			if r.Lo != lo {
				t.Fatalf("ShardRanges(%d, %d): gap or overlap at %d (range %+v)", c.n, c.shards, lo, r)
			}
			if r.Hi < r.Lo {
				t.Fatalf("ShardRanges(%d, %d): inverted range %+v", c.n, c.shards, r)
			}
			lo = r.Hi
		}
		if lo != c.n {
			t.Fatalf("ShardRanges(%d, %d): covers [0, %d), want [0, %d)", c.n, c.shards, lo, c.n)
		}
		// Near-equal: sizes differ by at most one.
		var min, max uint32 = math.MaxUint32, 0
		for _, r := range ranges {
			size := r.Hi - r.Lo
			if size < min {
				min = size
			}
			if size > max {
				max = size
			}
		}
		if c.n > 0 && max-min > 1 {
			t.Errorf("ShardRanges(%d, %d): uneven split min=%d max=%d", c.n, c.shards, min, max)
		}
	}
}

func TestMissRateSeriesParallelExact(t *testing.T) {
	base := gen.WebGraph(gen.DefaultWebGraph(2048, 8, 3))
	g := base.Relabel(reorder.Perm(reorder.Random{Seed: 9}, base))
	res := SimulateSpMV(g, SimOptions{})
	for _, shards := range []int{1, 2, 3, 8, 1000} {
		for _, pair := range []struct {
			name          string
			serial, shard *DegreeSeries
		}{
			{"missrate", MissRateByDegree(res, g.InDegrees()), MissRateByDegreeParallel(res, g.InDegrees(), shards)},
			{"processing", ProcessingMissRateByDegree(res, g.InDegrees()), ProcessingMissRateByDegreeParallel(res, g.InDegrees(), shards)},
		} {
			a, b := pair.serial, pair.shard
			if len(a.Sum) != len(b.Sum) {
				t.Fatalf("%s shards=%d: bin count %d != %d", pair.name, shards, len(b.Sum), len(a.Sum))
			}
			for j := range a.Sum {
				// Integer-valued bin sums: the merge must be bit-for-bit.
				if a.Sum[j] != b.Sum[j] || a.Count[j] != b.Count[j] {
					t.Fatalf("%s shards=%d bin %d: (%v, %d) != serial (%v, %d)",
						pair.name, shards, j, b.Sum[j], b.Count[j], a.Sum[j], a.Count[j])
				}
			}
		}
	}
}

func TestAIDByDegreeParallelMatchesSerial(t *testing.T) {
	base := gen.WebGraph(gen.DefaultWebGraph(2048, 8, 3))
	g := base.Relabel(reorder.Perm(reorder.Random{Seed: 11}, base))
	serial := AIDByDegree(g)
	for _, shards := range []int{1, 2, 5, 16} {
		got := AIDByDegreeParallel(g, shards)
		if len(got.Sum) != len(serial.Sum) {
			t.Fatalf("shards=%d: bin count %d != %d", shards, len(got.Sum), len(serial.Sum))
		}
		for j := range serial.Sum {
			if got.Count[j] != serial.Count[j] {
				t.Fatalf("shards=%d bin %d: count %d != %d", shards, j, got.Count[j], serial.Count[j])
			}
			// Sums are floats merged in a different order: equal to a few ulps.
			diff := math.Abs(got.Sum[j] - serial.Sum[j])
			if diff > 1e-9*math.Max(1, math.Abs(serial.Sum[j])) {
				t.Fatalf("shards=%d bin %d: sum %v != %v", shards, j, got.Sum[j], serial.Sum[j])
			}
		}
	}
}

func TestLineUtilizationParallel(t *testing.T) {
	base := gen.SocialNetwork(12, 12, 21)
	g := base.Relabel(reorder.Perm(reorder.Random{Seed: 13}, base))
	// A small cache relative to the trace keeps the per-shard cold-boundary
	// residencies a negligible fraction of the histogram.
	cfg := cachesim.ScaledL3(g.NumVertices(), 0.02)
	serial := LineUtilization(g, cfg)

	// One shard is the exact serial scan.
	one := LineUtilizationParallel(g, cfg, 1)
	if one.MeanWords() != serial.MeanWords() || one.Evicted != serial.Evicted {
		t.Fatalf("shards=1 diverges from serial: %v/%d vs %v/%d",
			one.MeanWords(), one.Evicted, serial.MeanWords(), serial.Evicted)
	}

	// Sharded scans are deterministic for a fixed shard count and stay close
	// to the serial histogram (each shard's cache boots cold at its range
	// boundary, so exact equality is not expected).
	a := LineUtilizationParallel(g, cfg, 4)
	b := LineUtilizationParallel(g, cfg, 4)
	if a.MeanWords() != b.MeanWords() || a.Evicted != b.Evicted {
		t.Fatal("sharded utilization scan is not deterministic")
	}
	if len(a.Histogram) != len(serial.Histogram) {
		t.Fatalf("histogram width %d != serial %d", len(a.Histogram), len(serial.Histogram))
	}
	if serial.MeanWords() > 0 {
		rel := math.Abs(a.MeanWords()-serial.MeanWords()) / serial.MeanWords()
		if rel > 0.05 {
			t.Errorf("sharded mean words %v vs serial %v (rel %.3f): boundary effect too large",
				a.MeanWords(), serial.MeanWords(), rel)
		}
	}
}
