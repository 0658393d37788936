package spmv

import (
	"testing"

	"graphlocality/internal/gen"
)

func BenchmarkPull(b *testing.B) {
	g := gen.RMAT(gen.DefaultRMAT(14, 16, 42))
	e := New(g, 0)
	src := make([]float64, g.NumVertices())
	dst := make([]float64, g.NumVertices())
	for i := range src {
		src[i] = 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Pull(src, dst)
	}
	b.SetBytes(int64(g.NumEdges() * 8))
}

func BenchmarkPushRead(b *testing.B) {
	g := gen.RMAT(gen.DefaultRMAT(14, 16, 42))
	e := New(g, 0)
	src := make([]float64, g.NumVertices())
	dst := make([]float64, g.NumVertices())
	for i := range src {
		src[i] = 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.PushRead(src, dst)
	}
	b.SetBytes(int64(g.NumEdges() * 8))
}

func BenchmarkPushAtomic(b *testing.B) {
	g := gen.RMAT(gen.DefaultRMAT(13, 16, 42))
	e := New(g, 0)
	src := make([]float64, g.NumVertices())
	dst := make([]float64, g.NumVertices())
	for i := range src {
		src[i] = 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range dst {
			dst[j] = 0
		}
		e.Push(src, dst)
	}
}

func BenchmarkPageRank(b *testing.B) {
	g := gen.WebGraph(gen.DefaultWebGraph(1<<13, 8, 42))
	e := New(g, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PageRank(g, func(src, dst []float64) { e.Pull(src, dst) }, 5, 0.85)
	}
}
