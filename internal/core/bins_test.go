package core

import (
	"testing"
	"testing/quick"
)

func TestLogBinsIndexMonotone(t *testing.T) {
	b := LogBins(100000)
	prev := -1
	for d := uint32(0); d <= 100000; d += 7 {
		i := b.Index(d)
		if i < prev {
			t.Fatalf("Index not monotone at %d", d)
		}
		if i >= b.Count() {
			t.Fatalf("Index(%d) = %d out of range (%d bins)", d, i, b.Count())
		}
		prev = i
	}
}

func TestLogBinsBoundaries(t *testing.T) {
	b := LogBins(1000)
	cases := map[uint32]uint32{ // degree -> expected bin lower bound
		0: 0, 1: 1, 2: 2, 3: 2, 4: 2, 5: 5, 9: 5, 10: 10, 19: 10,
		20: 20, 49: 20, 50: 50, 99: 50, 100: 100, 1000: 1000,
	}
	for d, lo := range cases {
		if got := b.Lower(b.Index(d)); got != lo {
			t.Errorf("degree %d binned at lower bound %d, want %d", d, got, lo)
		}
	}
}

func TestLogBinsLabels(t *testing.T) {
	b := LogBins(100)
	for i := 0; i < b.Count(); i++ {
		if b.Label(i) == "" {
			t.Errorf("bin %d has empty label", i)
		}
	}
	if b.Label(b.Index(0)) != "0" {
		t.Errorf("zero bin label = %q", b.Label(b.Index(0)))
	}
}

func TestLogBinsProperty(t *testing.T) {
	f := func(maxRaw uint32, dRaw uint32) bool {
		max := maxRaw%1000000 + 1
		d := dRaw % (max + 1)
		b := LogBins(max)
		i := b.Index(d)
		if i < 0 || i >= b.Count() {
			return false
		}
		// d must be >= its bin's lower bound.
		return b.Lower(i) <= d
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDegreeSeries(t *testing.T) {
	s := NewDegreeSeries(LogBins(100))
	s.Add(1, 10)
	s.Add(1, 20)
	s.Add(50, 5)
	i1 := s.Bins.Index(1)
	if got := s.Mean(i1); got != 15 {
		t.Errorf("Mean = %v, want 15", got)
	}
	if got := s.Mean(s.Bins.Index(50)); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := s.Mean(s.Bins.Index(100)); got != 0 {
		t.Errorf("empty bin Mean = %v, want 0", got)
	}
	ne := s.NonEmpty()
	if len(ne) != 2 {
		t.Errorf("NonEmpty = %v", ne)
	}
}

// Lower returns the inclusive lower degree bound of bin i.
func (b Bins) Lower(i int) uint32 { return b.lo[i] }
