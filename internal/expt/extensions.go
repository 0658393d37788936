package expt

import (
	"fmt"
	"strings"

	"graphlocality/internal/cachesim"
	"graphlocality/internal/core"
	"graphlocality/internal/ihtl"
	"graphlocality/internal/reorder"
	"graphlocality/internal/sfc"
	"graphlocality/internal/trace"
)

// Extension experiments beyond the paper's tables/figures: the §VIII-A
// iHTL comparison, the §VIII-C hybrid and cache-aware RAs, and the §IX-A
// space-filling-curve baseline.

// IHTLRow compares plain pull, the best RA, and iHTL misses.
type IHTLRow struct {
	Dataset     string
	Kind        Kind
	PlainMisses uint64
	ROMisses    uint64
	IHTLMisses  uint64
	Hubs        int
	Blocks      int
}

// IHTLExperiment measures §VIII-A: flipped blocks against reordering.
// Each dataset is one scheduler cell.
func IHTLExperiment(s *Session, datasets []Dataset) []IHTLRow {
	return mapCells(s, len(datasets), func(i int) IHTLRow {
		ds := datasets[i]
		g := s.Graph(ds)
		cfg := s.CacheFor(ds)
		blocked := ihtl.Build(g, ihtl.Config{CacheBytes: uint64(cfg.SizeBytes() / 2)})
		plain := core.SimulateSpMV(g, core.SimOptions{Cache: cfg}).Cache.Misses
		ro := s.Relabeled(ds, reorder.MustNew("ro"))
		roMiss := core.SimulateSpMV(ro, core.SimOptions{Cache: cfg}).Cache.Misses
		c := cachesim.New(cfg)
		ihtl.Trace(blocked, ihtl.NewLayout(blocked), func(a trace.Access) { c.Access(a.Addr, a.Write) })
		ihtlMiss := c.Stats().Misses
		return IHTLRow{
			Dataset: ds.Name, Kind: ds.Kind,
			PlainMisses: plain, ROMisses: roMiss, IHTLMisses: ihtlMiss,
			Hubs: blocked.NumHubs(), Blocks: blocked.NumBlocks(),
		}
	})
}

// RenderIHTL renders the §VIII-A comparison.
func RenderIHTL(rows []IHTLRow) string {
	var b strings.Builder
	w := newTab(&b)
	fmt.Fprintln(w, "Dataset\tType\tPlain (K)\tRO (K)\tiHTL (K)\tHubs\tBlocks")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%.1f\t%.1f\t%.1f\t%d\t%d\n",
			r.Dataset, r.Kind, float64(r.PlainMisses)/1e3, float64(r.ROMisses)/1e3,
			float64(r.IHTLMisses)/1e3, r.Hubs, r.Blocks)
	}
	w.Flush()
	return b.String()
}

// HybridRow compares the §VIII-C RA variants.
type HybridRow struct {
	Dataset   string
	Algorithm string
	Misses    uint64
	Preproc   float64 // seconds
}

// HybridExperiment runs SB/RO against their cache-aware variants and the
// RO+GO hybrid on each dataset. Each dataset (with its five variants,
// whose cache-aware parameters depend on the dataset) is one scheduler
// cell.
func HybridExperiment(s *Session, datasets []Dataset) []HybridRow {
	perDS := mapCells(s, len(datasets), func(i int) []HybridRow {
		ds := datasets[i]
		cacheBytes := uint64(s.CacheFor(ds).SizeBytes())
		algs := []reorder.Algorithm{
			reorder.MustNew("sb"),
			reorder.MustNew(fmt.Sprintf("sb:cachebytes=%d", cacheBytes)),
			reorder.MustNew("ro"),
			reorder.MustNew(fmt.Sprintf("ro:cachebytes=%d", cacheBytes)),
			reorder.MustNew("hybrid"),
		}
		rows := make([]HybridRow, 0, len(algs))
		for _, alg := range algs {
			res := s.Reorder(ds, alg)
			sim := s.Simulate(ds, alg, trace.Pull)
			// The row names a variant without its dataset-dependent
			// cachebytes ("SB-CA", not "SB-CA[cachebytes=...]").
			variant, _, _ := strings.Cut(alg.Name(), "[")
			rows = append(rows, HybridRow{
				Dataset: ds.Name, Algorithm: variant,
				Misses: sim.Cache.Misses, Preproc: res.Elapsed.Seconds(),
			})
		}
		return rows
	})
	var rows []HybridRow
	for _, r := range perDS {
		rows = append(rows, r...)
	}
	return rows
}

// RenderHybrid renders the §VIII-C comparison.
func RenderHybrid(rows []HybridRow) string {
	var b strings.Builder
	w := newTab(&b)
	fmt.Fprintln(w, "Dataset\tRA\tL3 Misses (K)\tPreproc (s)")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%.1f\t%.2f\n",
			r.Dataset, r.Algorithm, float64(r.Misses)/1e3, r.Preproc)
	}
	w.Flush()
	return b.String()
}

// UtilizationRow reports per-line word utilization of the vertex-data
// accesses under each RA (a spatial-locality companion to Table V).
type UtilizationRow struct {
	Dataset   string
	Algorithm string
	MeanWords float64 // of 8 per 64-byte line
	Misses    uint64
}

// UtilizationExperiment measures line utilization for each RA. Cells run
// under the parallel scheduler; rows come back in grid order.
func UtilizationExperiment(s *Session, datasets []Dataset, algs []reorder.Algorithm) []UtilizationRow {
	cells := grid(datasets, algs)
	return mapCells(s, len(cells), func(i int) UtilizationRow {
		c := cells[i]
		cfg := s.CacheFor(c.ds)
		g := s.Relabeled(c.ds, c.alg)
		u, err := core.LineUtilization(g, cfg)
		if err != nil {
			// CacheFor is a ScaledL3 geometry: 64-byte lines, no prefetch.
			panic(err)
		}
		sim := s.Simulate(c.ds, c.alg, trace.Pull)
		return UtilizationRow{
			Dataset: c.ds.Name, Algorithm: c.alg.Name(),
			MeanWords: u.MeanWords(), Misses: sim.Cache.Misses,
		}
	})
}

// RenderUtilization renders the utilization rows.
func RenderUtilization(rows []UtilizationRow) string {
	var b strings.Builder
	w := newTab(&b)
	fmt.Fprintln(w, "Dataset\tRA\tWords/line (of 8)\tL3 Misses (K)")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%.2f\t%.1f\n",
			r.Dataset, r.Algorithm, r.MeanWords, float64(r.Misses)/1e3)
	}
	w.Flush()
	return b.String()
}

// HilbertRow compares edge orderings of the COO traversal.
type HilbertRow struct {
	Dataset       string
	HilbertMisses uint64
	RowMisses     uint64
	PullMisses    uint64
}

// HilbertExperiment measures the §IX-A space-filling-curve baseline.
// Each dataset is one scheduler cell.
func HilbertExperiment(s *Session, datasets []Dataset) []HilbertRow {
	return mapCells(s, len(datasets), func(i int) HilbertRow {
		ds := datasets[i]
		g := s.Graph(ds)
		cfg := s.CacheFor(ds)
		l := trace.NewLayout(g)
		count := func(run func(trace.Sink)) uint64 {
			c := cachesim.New(cfg)
			run(func(a trace.Access) { c.Access(a.Addr, a.Write) })
			return c.Stats().Misses
		}
		hil := sfc.HilbertOrder(g)
		row := sfc.RowOrder(g)
		return HilbertRow{
			Dataset:       ds.Name,
			HilbertMisses: count(func(sk trace.Sink) { sfc.Trace(hil, l, sk) }),
			RowMisses:     count(func(sk trace.Sink) { sfc.Trace(row, l, sk) }),
			PullMisses:    core.SimulateSpMV(g, core.SimOptions{Cache: cfg}).Cache.Misses,
		}
	})
}

// RenderHilbert renders the space-filling-curve comparison.
func RenderHilbert(rows []HilbertRow) string {
	var b strings.Builder
	w := newTab(&b)
	fmt.Fprintln(w, "Dataset\tHilbert COO (K)\tRow COO (K)\tCSC pull (K)")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.1f\t%.1f\t%.1f\n",
			r.Dataset, float64(r.HilbertMisses)/1e3, float64(r.RowMisses)/1e3,
			float64(r.PullMisses)/1e3)
	}
	w.Flush()
	return b.String()
}
