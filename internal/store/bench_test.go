package store

import (
	"fmt"
	"testing"
)

// BenchmarkGetOrCompute times one GetOrCompute in a fresh directory:
// "miss" computes and writes a new artifact per iteration (the lock, the
// temp file's create and the two fsyncs), "hit" restores one verified
// artifact. A miss's cost is dominated by file creates and fsyncs, which
// differ several-fold between hosts and filesystems.
func BenchmarkGetOrCompute(b *testing.B) {
	payload := sampleSections()
	compute := func() ([]Section, error) { return payload, nil }
	b.Run("miss", func(b *testing.B) {
		s, err := Open(nil, b.TempDir(), nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.GetOrCompute(fmt.Sprintf("a%d.bin", i), true, nil, compute); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		s, err := Open(nil, b.TempDir(), nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.WriteArtifact("a.bin", payload); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := s.GetOrCompute("a.bin", true, nil, compute)
			if err != nil || !res.Restored {
				b.Fatalf("hit: restored=%v err=%v", res.Restored, err)
			}
		}
	})
}
