// Package core implements the paper's locality metrics and analysis tools:
// the Neighbour-to-Neighbour Average ID Distance (N2N AID, §V-A), the
// degree distributions of simulated cache miss rate and AID (§V-B, Fig. 1
// and 3), Effective Cache Size (§VI-F, Table V), asymmetricity (§VII-A,
// Fig. 4), degree range decomposition (§VII-A, Fig. 5), hub coverage
// curves (§VII-B, Fig. 6), and supporting profiles (average gap, reuse
// distance, locality-type classification of §IV-D).
package core

import (
	"fmt"
)

// Bins is a 1–2–5 log-spaced degree binning, matching the log-scale degree
// axes of the paper's figures (1, 2, 5, 10, 20, 50, 100, ...).
type Bins struct {
	// lower bound of each bin; bin i covers [lo[i], lo[i+1]).
	lo []uint32
}

// LogBins builds bins covering degrees [0, maxDeg]. Degree 0 gets its own
// bin; thereafter bounds follow the 1-2-5 series.
func LogBins(maxDeg uint32) Bins {
	lo := []uint32{0, 1}
	base := uint64(1)
	for {
		for _, m := range []uint64{2, 5, 10} {
			b := base * m
			if b > uint64(maxDeg) {
				if lo[len(lo)-1] <= maxDeg {
					lo = append(lo, uint32(minU64(b, 1<<32-1)))
				}
				return Bins{lo: lo}
			}
			lo = append(lo, uint32(b))
		}
		base *= 10
	}
}

func minU64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// Count returns the number of bins.
func (b Bins) Count() int { return len(b.lo) - 1 }

// Index returns the bin index for degree d.
func (b Bins) Index(d uint32) int {
	// Binary search for the last lower bound <= d.
	lo, hi := 0, len(b.lo)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if b.lo[mid] <= d {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	if lo > b.Count()-1 {
		lo = b.Count() - 1
	}
	return lo
}

// Label renders bin i as "lo-hi" (or "0" / "lo+" for edge bins).
func (b Bins) Label(i int) string {
	lo := b.lo[i]
	if i == len(b.lo)-2 {
		return fmt.Sprintf("%d+", lo)
	}
	hi := b.lo[i+1]
	if hi == lo+1 {
		return fmt.Sprintf("%d", lo)
	}
	return fmt.Sprintf("%d-%d", lo, hi-1)
}

// DegreeSeries is a per-degree-bin aggregate: for each bin, the average of
// a value over all samples falling in the bin, plus the sample count.
type DegreeSeries struct {
	Bins  Bins
	Sum   []float64
	Count []uint64
}

// NewDegreeSeries allocates a series over the given bins.
func NewDegreeSeries(b Bins) *DegreeSeries {
	return &DegreeSeries{Bins: b, Sum: make([]float64, b.Count()), Count: make([]uint64, b.Count())}
}

// Add records one sample with the given degree.
func (s *DegreeSeries) Add(degree uint32, value float64) {
	i := s.Bins.Index(degree)
	s.Sum[i] += value
	s.Count[i]++
}

// Mean returns the average value in bin i (0 when empty).
func (s *DegreeSeries) Mean(i int) float64 {
	if s.Count[i] == 0 {
		return 0
	}
	return s.Sum[i] / float64(s.Count[i])
}

// NonEmpty returns the indices of bins holding at least one sample.
func (s *DegreeSeries) NonEmpty() []int {
	var idx []int
	for i := range s.Count {
		if s.Count[i] > 0 {
			idx = append(idx, i)
		}
	}
	return idx
}
