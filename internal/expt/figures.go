package expt

import (
	"fmt"
	"strings"
	"time"

	"graphlocality/internal/core"
	"graphlocality/internal/graph"
	"graphlocality/internal/reorder"
	"graphlocality/internal/spmv"
	"graphlocality/internal/trace"
)

// Series is one named curve over degree bins.
type Series struct {
	Name   string
	Labels []string  // degree-bin labels
	Values []float64 // one value per label
}

// ----------------------------------------------------------------- Fig 1

// Fig1 computes the cache miss rate degree distribution of every RA on a
// dataset (paper Fig. 1): the misses incurred while *processing* each
// vertex, binned by its in-degree (the number of random accesses its
// processing makes in a pull traversal), per-bin miss rate in percent.
// Each algorithm is one scheduler cell.
func Fig1(s *Session, ds Dataset, algs []reorder.Algorithm) []Series {
	return mapCells(s, len(algs), func(i int) Series {
		alg := algs[i]
		sim := s.Simulate(ds, alg, trace.Pull)
		g := s.Relabeled(ds, alg)
		dist := core.ProcessingMissRateByDegree(sim, g.InDegrees())
		return seriesFromDegreeSeries(alg.Name(), dist)
	})
}

func seriesFromDegreeSeries(name string, d *core.DegreeSeries) Series {
	s := Series{Name: name}
	for _, i := range d.NonEmpty() {
		s.Labels = append(s.Labels, d.Bins.Label(i))
		s.Values = append(s.Values, d.Mean(i))
	}
	return s
}

// RenderSeries renders curves row-per-bin, one column per series.
func RenderSeries(title string, series []Series) string {
	var b strings.Builder
	fmt.Fprintln(&b, title)
	w := newTab(&b)
	// Union of labels in first-seen order.
	var labels []string
	seen := map[string]bool{}
	for _, s := range series {
		for _, l := range s.Labels {
			if !seen[l] {
				seen[l] = true
				labels = append(labels, l)
			}
		}
	}
	fmt.Fprint(w, "Degree")
	for _, s := range series {
		fmt.Fprintf(w, "\t%s", s.Name)
	}
	fmt.Fprintln(w)
	for _, l := range labels {
		fmt.Fprint(w, l)
		for _, s := range series {
			v, ok := lookup(s, l)
			if ok {
				fmt.Fprintf(w, "\t%.2f", v)
			} else {
				fmt.Fprint(w, "\t-")
			}
		}
		fmt.Fprintln(w)
	}
	w.Flush()
	return b.String()
}

func lookup(s Series, label string) (float64, bool) {
	for i, l := range s.Labels {
		if l == label {
			return s.Values[i], true
		}
	}
	return 0, false
}

// ----------------------------------------------------------------- Fig 2

// Fig2Snapshot is the GCC degree histogram after one SlashBurn iteration
// (paper Fig. 2), normalized to its maximum frequency.
type Fig2Snapshot struct {
	Iteration int // 0 = initial graph
	MaxDegree uint32
	// NormFreq[d] = frequency(degree d bucket)/max-frequency over the
	// log-binned degree axis.
	Labels   []string
	NormFreq []float64
	Vertices int
}

// Fig2 traces SlashBurn and captures the GCC degree distribution at the
// paper's snapshot iterations (initial, 1, 2, 4, 8, 16).
func Fig2(s *Session, ds Dataset) []Fig2Snapshot {
	g := s.Graph(ds)
	und := g.Undirected()
	want := map[int]bool{1: true, 2: true, 4: true, 8: true, 16: true}
	snaps := []Fig2Snapshot{degreeSnapshot(0, allDegrees(und))}
	sb := reorder.MustNew("sb").(*reorder.SlashBurn)
	sb.OnIteration = func(iter int, gccDegrees []uint32) {
		if want[iter] {
			snaps = append(snaps, degreeSnapshot(iter, gccDegrees))
		}
	}
	// Serial by necessity: the OnIteration callback appends to snaps.
	_, _ = sb.Reorder(s.controller().Context(), g)
	return snaps
}

func allDegrees(und *graph.Graph) []uint32 {
	d := make([]uint32, und.NumVertices())
	for v := uint32(0); v < und.NumVertices(); v++ {
		d[v] = und.OutDegree(v)
	}
	return d
}

func degreeSnapshot(iter int, degrees []uint32) Fig2Snapshot {
	snap := Fig2Snapshot{Iteration: iter, Vertices: len(degrees)}
	var maxDeg uint32 = 1
	for _, d := range degrees {
		if d > maxDeg {
			maxDeg = d
		}
	}
	snap.MaxDegree = maxDeg
	bins := core.LogBins(maxDeg)
	freq := make([]uint64, bins.Count())
	var maxFreq uint64 = 1
	for _, d := range degrees {
		i := bins.Index(d)
		freq[i]++
		if freq[i] > maxFreq {
			maxFreq = freq[i]
		}
	}
	for i := 0; i < bins.Count(); i++ {
		if freq[i] == 0 {
			continue
		}
		snap.Labels = append(snap.Labels, bins.Label(i))
		snap.NormFreq = append(snap.NormFreq, float64(freq[i])/float64(maxFreq))
	}
	return snap
}

// RenderFig2 renders the snapshots.
func RenderFig2(snaps []Fig2Snapshot) string {
	var b strings.Builder
	for _, s := range snaps {
		name := "Initial state"
		if s.Iteration > 0 {
			name = fmt.Sprintf("After iteration %d", s.Iteration)
		}
		fmt.Fprintf(&b, "%s: GCC |V|=%d, max degree %d\n", name, s.Vertices, s.MaxDegree)
		w := newTab(&b)
		fmt.Fprintln(w, "  Degree\tFreq/MaxFreq")
		for i, l := range s.Labels {
			fmt.Fprintf(w, "  %s\t%.3f\n", l, s.NormFreq[i])
		}
		w.Flush()
	}
	return b.String()
}

// ----------------------------------------------------------------- Fig 3

// Fig3 computes the AID degree distribution of the initial order and
// Rabbit-Order (paper Fig. 3).
func Fig3(s *Session, ds Dataset) []Series {
	initial := core.AIDByDegree(s.Graph(ds))
	ro := core.AIDByDegree(s.Relabeled(ds, reorder.MustNew("ro")))
	return []Series{
		seriesFromDegreeSeries("Initial", initial),
		seriesFromDegreeSeries("RabbitOrder", ro),
	}
}

// ----------------------------------------------------------------- Fig 4

// Fig4 computes asymmetricity degree distributions for a social network
// and a web graph (paper Fig. 4).
func Fig4(s *Session, social, web Dataset) []Series {
	return []Series{
		seriesFromDegreeSeries(social.Name, core.AsymmetricityByDegree(s.Graph(social))),
		seriesFromDegreeSeries(web.Name, core.AsymmetricityByDegree(s.Graph(web))),
	}
}

// ----------------------------------------------------------------- Fig 5

// Fig5Result is a degree range decomposition per dataset (paper Fig. 5).
type Fig5Result struct {
	Dataset string
	Matrix  core.DecompMatrix
}

// Fig5 computes the decomposition for the given datasets.
func Fig5(s *Session, datasets []Dataset) []Fig5Result {
	var out []Fig5Result
	for _, ds := range datasets {
		out = append(out, Fig5Result{Dataset: ds.Name, Matrix: core.DegreeRangeDecomposition(s.Graph(ds))})
	}
	return out
}

// RenderFig5 renders the percentage matrices.
func RenderFig5(res []Fig5Result) string {
	var b strings.Builder
	for _, r := range res {
		fmt.Fprintf(&b, "%s: %% of in-edges to each in-degree class (rows) by source out-degree class (cols)\n", r.Dataset)
		w := newTab(&b)
		fmt.Fprint(w, "  dst\\src")
		for _, c := range r.Matrix.Classes {
			fmt.Fprintf(w, "\t%s", c)
		}
		fmt.Fprintln(w, "\tin-edges")
		for i, row := range r.Matrix.Pct {
			if r.Matrix.EdgeCount[i] == 0 {
				continue
			}
			fmt.Fprintf(w, "  %s", r.Matrix.Classes[i])
			for _, p := range row {
				fmt.Fprintf(w, "\t%.0f", p)
			}
			fmt.Fprintf(w, "\t%d\n", r.Matrix.EdgeCount[i])
		}
		w.Flush()
	}
	return b.String()
}

// ----------------------------------------------------------------- Fig 6

// Fig6Result is the hub coverage curve of one dataset (paper Fig. 6).
type Fig6Result struct {
	Dataset string
	Kind    Kind
	Curve   core.CoverageCurve
}

// Fig6 computes in-hub vs out-hub edge coverage for the given datasets.
func Fig6(s *Session, datasets []Dataset) []Fig6Result {
	var out []Fig6Result
	for _, ds := range datasets {
		g := s.Graph(ds)
		pts := core.DefaultCoveragePoints(g.NumVertices())
		out = append(out, Fig6Result{Dataset: ds.Name, Kind: ds.Kind, Curve: core.HubCoverage(g, pts)})
	}
	return out
}

// RenderFig6 renders coverage curves.
func RenderFig6(res []Fig6Result) string {
	var b strings.Builder
	for _, r := range res {
		fmt.Fprintf(&b, "%s (%s): %% of edges covered by top-H hubs\n", r.Dataset, r.Kind)
		w := newTab(&b)
		fmt.Fprintln(w, "  H\tIn-hubs (CSR/push)\tOut-hubs (CSC/pull)")
		for i, h := range r.Curve.H {
			fmt.Fprintf(w, "  %d\t%.1f\t%.1f\n", h, r.Curve.InHubPct[i], r.Curve.OutHubPct[i])
		}
		w.Flush()
	}
	return b.String()
}

// ---------------------------------------------------------- §VIII-B2 EDR

// EDRRow compares full Rabbit-Order to the EDR-restricted variant.
type EDRRow struct {
	Dataset       string
	FullPreproc   float64 // seconds
	EDRPreproc    float64
	FullTraversal float64 // ms
	EDRTraversal  float64
	FullMisses    uint64
	EDRMisses     uint64
}

// EDRExperiment runs Rabbit-Order with and without the efficacy-degree-
// range restriction (§VIII-B2). The EDR is taken as [1, √|V|]: the miss
// rate degree distributions (Fig. 1) show Rabbit-Order improves locality
// below the hub threshold and degrades it above.
// Two-phase: reorderings and simulations run under the parallel
// scheduler, wall-clock traversals serially.
func EDRExperiment(s *Session, datasets []Dataset) []EDRRow {
	type dsOut struct {
		full, edr       reorder.Algorithm
		rFull, rEDR     reorder.Result
		simFull, simEDR core.SimResult
	}
	outs := mapCells(s, len(datasets), func(i int) dsOut {
		ds := datasets[i]
		g := s.Graph(ds)
		hub := uint32(g.HubThreshold())
		full := reorder.MustNew("ro")
		edr := reorder.MustNew(fmt.Sprintf("ro:edr=1-%d", hub))
		return dsOut{
			full: full, edr: edr,
			rFull:   s.Reorder(ds, full),
			rEDR:    s.Reorder(ds, edr),
			simFull: s.Simulate(ds, full, trace.Pull),
			simEDR:  s.Simulate(ds, edr, trace.Pull),
		}
	})
	rows := make([]EDRRow, len(datasets))
	for i, ds := range datasets {
		o := outs[i]
		tFull, _ := s.TimeTraversal(ds, o.full, trace.Pull)
		tEDR, _ := s.TimeTraversal(ds, o.edr, trace.Pull)
		rows[i] = EDRRow{
			Dataset:     ds.Name,
			FullPreproc: o.rFull.Elapsed.Seconds(), EDRPreproc: o.rEDR.Elapsed.Seconds(),
			FullTraversal: float64(tFull.Microseconds()) / 1000,
			EDRTraversal:  float64(tEDR.Microseconds()) / 1000,
			FullMisses:    o.simFull.Cache.Misses, EDRMisses: o.simEDR.Cache.Misses,
		}
	}
	return rows
}

// RenderEDR renders the EDR comparison.
func RenderEDR(rows []EDRRow) string {
	var b strings.Builder
	w := newTab(&b)
	fmt.Fprintln(w, "Dataset\tPre RO (s)\tPre RO-EDR (s)\tTrav RO (ms)\tTrav RO-EDR (ms)\tL3 RO (K)\tL3 RO-EDR (K)")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.2f\t%.2f\t%.1f\t%.1f\t%.1f\t%.1f\n",
			r.Dataset, r.FullPreproc, r.EDRPreproc, r.FullTraversal, r.EDRTraversal,
			float64(r.FullMisses)/1e3, float64(r.EDRMisses)/1e3)
	}
	w.Flush()
	return b.String()
}

// ----------------------------------------------------- §III-B framework gap

// GapRow compares the optimized CSR engine to a framework-style naive
// SpMV (paper §III-B's motivation for a low-overhead substrate).
type GapRow struct {
	Dataset  string
	EngineMS float64
	NaiveMS  float64
	Speedup  float64
}

// FrameworkGap measures the naive-vs-engine pull SpMV gap.
func FrameworkGap(s *Session, datasets []Dataset) []GapRow {
	var rows []GapRow
	for _, ds := range datasets {
		engineT, _ := s.TimeTraversal(ds, reorder.Identity{}, trace.Pull)
		naiveMS := timeNaive(s, ds)
		engineMS := float64(engineT.Microseconds()) / 1000
		rows = append(rows, GapRow{
			Dataset:  ds.Name,
			EngineMS: engineMS,
			NaiveMS:  naiveMS,
			Speedup:  naiveMS / engineMS,
		})
	}
	return rows
}

// timeNaive measures the adjacency-map SpMV (best of s.Repeats), in ms.
func timeNaive(s *Session, ds Dataset) float64 {
	g := s.Graph(ds)
	naive := spmv.NewNaive(g)
	n := g.NumVertices()
	src := make([]float64, n)
	dst := make([]float64, n)
	for i := range src {
		src[i] = float64(i%13) + 1
	}
	naive.Pull(src, dst) // warmup
	best := time.Duration(1<<63 - 1)
	for i := 0; i < s.Repeats; i++ {
		t0 := time.Now()
		naive.Pull(src, dst)
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return float64(best.Microseconds()) / 1000
}

// RenderGap renders the framework-gap rows.
func RenderGap(rows []GapRow) string {
	var b strings.Builder
	w := newTab(&b)
	fmt.Fprintln(w, "Dataset\tEngine (ms)\tNaive (ms)\tSpeedup")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.1f\t%.1f\t%.1fx\n", r.Dataset, r.EngineMS, r.NaiveMS, r.Speedup)
	}
	w.Flush()
	return b.String()
}
