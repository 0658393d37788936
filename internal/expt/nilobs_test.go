package expt

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"graphlocality/internal/cachesim"
	"graphlocality/internal/core"
	"graphlocality/internal/graph"
	"graphlocality/internal/obs"
	"graphlocality/internal/reorder"
	"graphlocality/internal/runctl"
	"graphlocality/internal/spmv"
	"graphlocality/internal/store"
	"graphlocality/internal/trace"
)

// TestNilRegistryIsNoOp checks that a nil *obs.Registry switches
// recording off wherever a layer takes one: every counter, gauge,
// histogram and span it hands out is nil, so no path may dereference it.
func TestNilRegistryIsNoOp(t *testing.T) {
	var reg *obs.Registry

	t.Run("store.Open", func(t *testing.T) {
		st, err := store.Open(nil, t.TempDir(), reg)
		if err != nil {
			t.Fatal(err)
		}
		want := []store.Section{{Name: "v", Data: []byte("payload")}}
		if err := st.WriteArtifact("a.bin", want); err != nil {
			t.Fatal(err)
		}
		if _, err := st.ReadArtifact("a.bin"); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("runctl.New", func(t *testing.T) {
		c := runctl.New(context.Background(), runctl.Config{Metrics: reg, BaseBackoff: 1})
		if err := c.Run("ok", func(context.Context) error { return nil }); err != nil {
			t.Fatal(err)
		}
		flaky := 0
		if err := c.Run("flaky", func(context.Context) error {
			if flaky++; flaky == 1 {
				return runctl.Transient(errors.New("once"))
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		var se *runctl.StageError
		if err := c.Run("pop", func(context.Context) error { panic("pop") }); !errors.As(err, &se) || !se.Panicked() {
			t.Fatalf("panic = %v, want a panicking *StageError", err)
		}
	})

	g := Suite(Tiny)[0].Build()

	t.Run("segcsr cache", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "g.seg")
		if _, err := graph.WriteSegmented(g, path, graph.SegmentedOptions{SegmentVertices: 7, Obs: reg}); err != nil {
			t.Fatal(err)
		}
		// A budget below one segment's decoded size forces misses,
		// evictions and uncached reads.
		sg, err := graph.OpenSegmented(path, graph.SegmentedOptions{CacheBytes: 64, Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		defer sg.Close()
		core.SimulateSpMV(sg, core.SimOptions{})
		if err := sg.Err(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("spmv.Engine.Metrics", func(t *testing.T) {
		e := spmv.New(g, 2)
		e.Metrics = reg
		n := g.NumVertices()
		e.Pull(make([]float64, n), make([]float64, n))
	})

	t.Run("Stats.Record", func(t *testing.T) {
		cachesim.Stats{Accesses: 3, Hits: 1, Misses: 2}.Record(reg, "sim.cache")
	})

	t.Run("Session.Obs", func(t *testing.T) {
		s, ds := tinySession()
		s.Obs = reg
		s.CacheDir = t.TempDir()
		alg := reorder.MustNew("dbg")
		s.Reorder(ds[0], alg)
		if reason, bad := s.Degraded(ds[0], alg); bad {
			t.Fatalf("reorder degraded: %s", reason)
		}
		if res := s.Simulate(ds[0], alg, trace.Pull); res.Canceled || res.Cache.Accesses == 0 {
			t.Fatalf("simulate = %+v", res.Cache)
		}
		s.TimeTraversal(ds[0], alg, trace.Pull)
		mapCells(s, 2, func(i int) int { return i })
	})
}
