package main

import (
	"math"
	"slices"
	"time"
)

// median returns the middle value of xs, or the mean of the two middle
// values for an even count, as Python's statistics.median does.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points of Python's
// statistics.quantiles(xs, n=4) (its default "exclusive" method), the
// statistic the run-to-run spread of the benchmark is judged by.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs: the
// smallest sample with at least a share p of the samples at or below it.
// Exactly n - ceil(p·n) samples lie beyond it.
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest rank of the p-quantile among n samples.
func rank(n int, p float64) int {
	// The epsilon keeps p·n that is whole in exact arithmetic (0.99·1000)
	// from rounding up one rank.
	return min(max(int(math.Ceil(p*float64(n)-1e-9)), 1), n)
}

// tailSamples is how many samples must lie beyond a reported tail
// percentile: a tail read off fewer is not reported.
const tailSamples = 10

// beyond returns how many of n samples lie beyond the nearest-rank
// p-quantile.
func beyond(n int, p float64) int { return n - rank(n, p) }

// maxTailPct returns the highest percentile (as a share) of n samples
// that still has tailSamples samples beyond it, or 0 when n is too small
// for any tail.
func maxTailPct(n int) float64 {
	if n <= tailSamples {
		return 0
	}
	return 1 - float64(tailSamples)/float64(n)
}

// minSamples returns the smallest sample count whose p-quantile has
// tailSamples samples beyond it.
func minSamples(p float64) int {
	n := tailSamples + 1
	for beyond(n, p) < tailSamples {
		n++
	}
	return n
}

// layerSumRatio is the sum of the times of layers run alone over the time
// of the fused run they make up; 1 means the layers account for the fused
// time exactly. It returns 0 when there is no fused time.
func layerSumRatio(layers []time.Duration, fused time.Duration) float64 {
	if fused <= 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range layers {
		sum += d
	}
	return float64(sum) / float64(fused)
}

// medianDuration is median over durations.
func medianDuration(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

func sorted(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}
