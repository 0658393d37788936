package main

import (
	"math"
	"testing"
	"time"
)

// The expected values are Python's statistics.median and
// statistics.quantiles(xs, n=4), the statistics the spread of the
// benchmark is judged by.
func TestMedianAndQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		med        float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 1.5, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 2, 1, 2, 3},
		{[]float64{1, 2, 3, 4}, 2.5, 1.25, 2.5, 3.75},
		{[]float64{5, 1, 4, 2, 3}, 3, 1.5, 3, 4.5},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 55, 27.5, 55, 82.5},
		{[]float64{2.5, 0.5, 1.5}, 1.5, 0.5, 1.5, 2.5},
	} {
		if got := median(tc.xs); got != tc.med {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.med)
		}
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
}

func TestMedianLeavesInputUnsorted(t *testing.T) {
	xs := []float64{3, 1, 2}
	median(xs)
	quartiles(xs)
	percentile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input reordered to %v", xs)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i) // 100..1, unsorted
	}
	for _, tc := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{hundred, 0.90, 90},
		{hundred, 0.99, 99},
		{hundred, 0.5, 50},
		{hundred, 0.001, 1},
		{[]float64{7}, 0.99, 7},
		{[]float64{1, 2, 3}, 0.9, 3},
	} {
		if got := percentile(tc.xs, tc.p); got != tc.want {
			t.Errorf("percentile(n=%d, %v) = %v, want %v", len(tc.xs), tc.p, got, tc.want)
		}
	}
}

// The tail rule: a tail percentile is reported only with at least ten
// samples beyond it.
func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		n      int
		p      float64
		beyond int
	}{
		{1000, 0.99, 10},
		{999, 0.99, 9},
		{100, 0.90, 10},
		{99, 0.90, 9},
		{50, 0.80, 10},
		{10, 0.5, 5},
	} {
		if got := beyond(tc.n, tc.p); got != tc.beyond {
			t.Errorf("beyond(%d, %v) = %d, want %d", tc.n, tc.p, got, tc.beyond)
		}
	}
	for _, tc := range []struct {
		p    float64
		want int
	}{{0.99, 1000}, {0.90, 100}, {0.80, 50}, {0.5, 20}} {
		n := minSamples(tc.p)
		if n != tc.want {
			t.Errorf("minSamples(%v) = %d, want %d", tc.p, n, tc.want)
		}
		if beyond(n, tc.p) < tailSamples || beyond(n-1, tc.p) >= tailSamples {
			t.Errorf("minSamples(%v) = %d is not the smallest count with %d beyond", tc.p, n, tailSamples)
		}
	}
	for _, tc := range []struct {
		n    int
		want float64
	}{{1000, 0.99}, {100, 0.9}, {10, 0}, {0, 0}} {
		if got := maxTailPct(tc.n); got != tc.want {
			t.Errorf("maxTailPct(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

// The end-to-end times are read in reference units: a window's time over
// the reference kernel's time right after it. A host that slows the
// program and the kernel alike leaves them unchanged; a change that slows
// the program moves them.
func TestWindowsInReferenceUnits(t *testing.T) {
	ms := time.Millisecond
	// run builds a one-op-per-pass phase: pass i takes durs[i] for 1e6
	// edges, and the reference kernel after it refs[i].
	run := func(durs, refs []time.Duration) *phase {
		p := &phase{}
		for i, d := range durs {
			p.samples = append(p.samples, sample{key: "g", dur: d, edges: 1e6, win: i})
			p.span = append(p.span, d)
			p.ref = append(p.ref, refs[i])
			p.passes++
		}
		return p
	}
	// Five passes on a fast host (100 ms, reference 20 ms) and five on a
	// host twice as slow.
	var durs, refs []time.Duration
	for i := 0; i < 5; i++ {
		durs = append(durs, 100*ms, 200*ms)
		refs = append(refs, 20*ms, 40*ms)
	}
	p := run(durs[:4], refs[:4])
	p.add(run(durs[4:], refs[4:]))
	if len(p.span) != 10 || len(p.ref) != 10 || p.samples[9].win != 9 || p.passes != 10 {
		t.Fatalf("add gave %d windows, %d references, last sample in window %d, %v passes",
			len(p.span), len(p.ref), p.samples[9].win, p.passes)
	}
	// 1 Medge in 5 references' time; the median op takes 5 references.
	if got := p.medgesPerRef(); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("medgesPerRef = %v, want 0.2", got)
	}
	if got := p.latencyP50Ref(); got != 5 {
		t.Errorf("latencyP50Ref = %v, want 5", got)
	}
	// In host time the two speeds mix: 10 Medge over 1.5 s.
	if got := p.medgesPerS(); math.Abs(got-10/1.5) > 1e-9 {
		t.Errorf("medgesPerS = %v, want %v", got, 10/1.5)
	}

	// A change that slows the program by a tenth, on the same host, moves
	// both by a tenth.
	for i := range durs {
		durs[i] += durs[i] / 10
	}
	slower := run(durs, refs)
	if got := slower.medgesPerRef(); math.Abs(got-0.2/1.1) > 1e-12 {
		t.Errorf("slowed: medgesPerRef = %v, want %v", got, 0.2/1.1)
	}
	if got := slower.latencyP50Ref(); math.Abs(got-5.5) > 1e-12 {
		t.Errorf("slowed: latencyP50Ref = %v, want 5.5", got)
	}
}

func TestLayerSumRatio(t *testing.T) {
	ms := time.Millisecond
	for _, tc := range []struct {
		layers []time.Duration
		fused  time.Duration
		want   float64
	}{
		{[]time.Duration{10 * ms, 90 * ms}, 100 * ms, 1},
		{[]time.Duration{10 * ms, 80 * ms}, 100 * ms, 0.9},
		{[]time.Duration{60 * ms, 60 * ms}, 100 * ms, 1.2},
		{nil, 100 * ms, 0},
		{[]time.Duration{ms}, 0, 0},
	} {
		if got := layerSumRatio(tc.layers, tc.fused); got != tc.want {
			t.Errorf("layerSumRatio(%v, %v) = %v, want %v", tc.layers, tc.fused, got, tc.want)
		}
	}
}
