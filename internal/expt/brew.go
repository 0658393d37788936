package expt

import (
	"fmt"
	"sort"
	"strings"

	"graphlocality/internal/core"
	"graphlocality/internal/graph"
	"graphlocality/internal/reorder"
	"graphlocality/internal/trace"
)

// The brew extension experiment: the per-community hybrid meta-RA against
// every global reordering in the registry, evaluated with the paper's
// metric suite (mean AID, effective cache size, overall and
// degree-resolved miss rates).

// GlobalAlgorithms returns every registered non-meta algorithm in its
// default configuration, sorted by canonical registry name. This is the
// "every global RA" line-up the brew comparison runs against — it tracks
// the registry, so newly registered orderings join automatically.
func GlobalAlgorithms() []reorder.Algorithm {
	var algs []reorder.Algorithm
	for _, info := range reorder.Registrations() {
		if info.Class == reorder.ClassMeta {
			continue
		}
		algs = append(algs, reorder.MustNew(info.Name))
	}
	sort.Slice(algs, func(i, j int) bool { return algs[i].Name() < algs[j].Name() })
	return algs
}

// AlgorithmsFromSpecs builds one algorithm per spec string ("ro",
// "go:window=7", "brew:detect=lp"), for CLI flags that let the user pick
// the experiment line-up.
func AlgorithmsFromSpecs(specs []string) ([]reorder.Algorithm, error) {
	algs := make([]reorder.Algorithm, 0, len(specs))
	for _, spec := range specs {
		alg, err := reorder.New(strings.TrimSpace(spec))
		if err != nil {
			return nil, err
		}
		algs = append(algs, alg)
	}
	return algs, nil
}

// BrewRow is one dataset × algorithm cell of the brew comparison. All
// fields are deterministic (simulated counters and structural metrics, no
// wall-clock), so the experiment snapshots cleanly.
type BrewRow struct {
	Dataset   string
	Algorithm string
	Class     reorder.Class
	// MeanAID is the mean average in-neighbour ID distance of the
	// relabeled graph (lower = neighbours closer in the ID space).
	MeanAID float64
	// Packing is the packing factor of the relabeled graph (Faldu et al.,
	// arXiv 2001.08448): the fraction of hot-vertex cache-line capacity
	// actually holding hot vertices (higher = denser hub packing).
	Packing float64
	// ECSPct is the average effective cache size during the pull
	// traversal (Table V's metric).
	ECSPct float64
	// MissRatePct is the overall L3 miss rate of the traversal.
	MissRatePct float64
	// LowDegMissPct / HighDegMissPct split the random-access miss rate by
	// the destination vertex's in-degree (< / >= brewDegreeSplit), the
	// Fig. 1 view folded to two columns.
	LowDegMissPct  float64
	HighDegMissPct float64
	// BytesPerEdge is the delta-gap + varint compressed size of the
	// relabeled CSR in bytes per edge (segcsr's on-disk codec; raw CSR is
	// 4 B/edge). Good orderings pull neighbours together in ID space and
	// shrink the gaps, so this doubles as a storage-side locality metric.
	BytesPerEdge float64
}

// brewDegreeSplit is the in-degree boundary between the low-degree and
// high-degree miss-rate columns.
const brewDegreeSplit = 8

// BrewExperiment compares brew (default configuration) against every
// global RA on each dataset. One dataset × algorithm pair is one scheduler
// cell; each cell runs a single simulation that collects ECS snapshots and
// per-vertex miss attribution at once.
func BrewExperiment(s *Session, datasets []Dataset) []BrewRow {
	algs := append(GlobalAlgorithms(), reorder.MustNew("brew"))
	type cell struct {
		ds  Dataset
		alg reorder.Algorithm
	}
	var cells []cell
	for _, ds := range datasets {
		for _, a := range algs {
			cells = append(cells, cell{ds, a})
		}
	}
	return mapCells(s, len(cells), func(i int) BrewRow {
		c := cells[i]
		g := s.Relabeled(c.ds, c.alg)
		sim := s.Simulate(c.ds, c.alg, trace.Pull)
		info, _ := reorder.Lookup(c.alg.Spec()) // default configurations: spec = name
		row := BrewRow{
			Dataset:      c.ds.Name,
			Algorithm:    c.alg.Name(),
			Class:        info.Class,
			MeanAID:      core.MeanAID(g),
			Packing:      core.PackingFactor(g),
			ECSPct:       sim.ECS,
			MissRatePct:  100 * sim.Cache.MissRate(),
			BytesPerEdge: graph.MeasureSegmented(g, graph.SegmentedOptions{}).BytesPerEdge(),
		}
		row.LowDegMissPct, row.HighDegMissPct = missRateByDegreeSplit(sim, g.InDegrees())
		return row
	})
}

// missRateByDegreeSplit folds the per-destination-vertex miss attribution
// into two aggregate miss rates, split at brewDegreeSplit on in-degree.
func missRateByDegreeSplit(sim core.SimResult, inDeg []uint32) (lowPct, highPct float64) {
	if sim.Canceled || len(sim.DestMisses) != len(inDeg) {
		return 0, 0 // per-vertex attribution unavailable (degraded cell)
	}
	// Processing v in pull issues in-degree(v) random accesses.
	var lowAcc, lowMiss, highAcc, highMiss uint64
	for v, deg := range inDeg {
		if deg < brewDegreeSplit {
			lowAcc += uint64(deg)
			lowMiss += uint64(sim.DestMisses[v])
		} else {
			highAcc += uint64(deg)
			highMiss += uint64(sim.DestMisses[v])
		}
	}
	if lowAcc > 0 {
		lowPct = 100 * float64(lowMiss) / float64(lowAcc)
	}
	if highAcc > 0 {
		highPct = 100 * float64(highMiss) / float64(highAcc)
	}
	return lowPct, highPct
}

// RenderBrew renders the brew comparison.
func RenderBrew(rows []BrewRow) string {
	var b strings.Builder
	w := newTab(&b)
	fmt.Fprintln(w, "Dataset\tRA\tClass\tMean AID\tPacking\tECS %\tMiss %\tMiss % (deg<8)\tMiss % (deg>=8)\tB/edge")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%s\t%.1f\t%.3f\t%.1f\t%.2f\t%.2f\t%.2f\t%.3f\n",
			r.Dataset, r.Algorithm, r.Class, r.MeanAID, r.Packing, r.ECSPct,
			r.MissRatePct, r.LowDegMissPct, r.HighDegMissPct, r.BytesPerEdge)
	}
	w.Flush()
	return b.String()
}
