package expt

import (
	"fmt"
	"math"
	"strings"
	"text/tabwriter"
	"time"

	"graphlocality/internal/core"
	"graphlocality/internal/reorder"
	"graphlocality/internal/trace"
)

// ---------------------------------------------------------------- Table I

// TableIRow is one dataset-inventory row (paper Table I), extended with
// the structural signals the advisor derives (§VII).
type TableIRow struct {
	Name        string
	Paper       string
	Kind        Kind
	V           uint32
	E           uint64
	AvgDeg      float64
	MaxInDeg    uint32
	Reciprocity float64
	HubAsym     float64
	Detected    string // advisor's structural classification
}

// TableI builds the dataset inventory.
func TableI(s *Session, datasets []Dataset) []TableIRow {
	rows := make([]TableIRow, 0, len(datasets))
	for _, ds := range datasets {
		g := s.Graph(ds)
		a := core.Advise(g)
		rows = append(rows, TableIRow{
			Name: ds.Name, Paper: ds.Paper, Kind: ds.Kind,
			V: g.NumVertices(), E: g.NumEdges(),
			AvgDeg: g.AverageDegree(), MaxInDeg: g.MaxInDegree(),
			Reciprocity: a.Reciprocity, HubAsym: a.HubAsymmetry,
			Detected: a.Class.String(),
		})
	}
	return rows
}

// RenderTableI renders the rows like the paper's Table I.
func RenderTableI(rows []TableIRow) string {
	var b strings.Builder
	w := newTab(&b)
	fmt.Fprintln(w, "Dataset\tStands for\t|V|\t|E|\tAvgDeg\tMaxInDeg\tRecip\tHubAsym\tType\tDetected")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%.1f\t%d\t%.2f\t%.2f\t%s\t%s\n",
			r.Name, r.Paper, r.V, r.E, r.AvgDeg, r.MaxInDeg,
			r.Reciprocity, r.HubAsym, r.Kind, r.Detected)
	}
	w.Flush()
	return b.String()
}

// --------------------------------------------------------------- Table II

// TableIIRow reports reordering preprocessing cost (paper Table II).
type TableIIRow struct {
	Dataset    string
	Algorithm  string
	Preprocess time.Duration
	AllocBytes uint64
	// Degraded marks a row whose RA stage failed (panic, deadline, error):
	// the session fell back to the Initial ordering for this pair.
	Degraded bool
	// DegradedReason is the short failure description for degraded rows.
	DegradedReason string
}

// TableII measures preprocessing time and allocation for every RA on
// every dataset. RA stage failures do not abort the table: the affected
// rows are marked degraded (see Session.Reorder). The cells run one at a
// time whatever the session's parallelism: Elapsed is wall-clock and
// AllocBytes is a process-wide allocation delta, so a concurrent sibling
// cell would be measured along with the cell itself.
func TableII(s *Session, datasets []Dataset, algs []reorder.Algorithm) []TableIIRow {
	work := make([]reorder.Algorithm, 0, len(algs))
	for _, alg := range algs {
		if _, ok := alg.(reorder.Identity); ok {
			continue // the baseline has no preprocessing
		}
		work = append(work, alg)
	}
	cells := grid(datasets, work)
	s.Obs.Counter("expt.cells").Add(uint64(len(cells)))
	rows := make([]TableIIRow, len(cells))
	for i, c := range cells {
		r := s.Reorder(c.ds, c.alg)
		reason, deg := s.Degraded(c.ds, c.alg)
		rows[i] = TableIIRow{
			Dataset: c.ds.Name, Algorithm: r.Algorithm,
			Preprocess: r.Elapsed, AllocBytes: r.AllocBytes,
			Degraded: deg, DegradedReason: reason,
		}
	}
	return rows
}

// RenderTableII renders preprocessing cost rows. Degraded rows carry a
// "*" marker and a footnote with the failure reason.
func RenderTableII(rows []TableIIRow) string {
	var b strings.Builder
	w := newTab(&b)
	fmt.Fprintln(w, "Dataset\tRA\tPreproc (s)\tAlloc (MB)")
	var notes []string
	for _, r := range rows {
		name := r.Algorithm
		if r.Degraded {
			name += "*"
			notes = append(notes, fmt.Sprintf("* %s/%s degraded to Initial: %s",
				r.Dataset, r.Algorithm, r.DegradedReason))
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%.1f\n",
			r.Dataset, name, fmtSeconds(r.Preprocess), float64(r.AllocBytes)/1e6)
	}
	w.Flush()
	for _, n := range notes {
		fmt.Fprintln(&b, n)
	}
	return b.String()
}

// -------------------------------------------------------------- Table III

// TableIIIRow reports simulated misses accessing data of vertices above a
// degree threshold (paper Table III).
type TableIIIRow struct {
	Dataset   string
	MinDegree uint32
	// Misses per algorithm name, same order as the algs argument.
	Algorithms []string
	Misses     []uint64
}

// TableIII runs the per-vertex-attributed simulation for each RA and
// counts misses on data of vertices with out-degree above each threshold.
// Thresholds scale with the dataset: √|V| (the paper's hub bar) and the
// average degree (the LDV/HDV bar).
func TableIII(s *Session, datasets []Dataset, algs []reorder.Algorithm) []TableIIIRow {
	// Phase 1: every (dataset, algorithm) simulation runs as its own
	// scheduler cell; the per-cell outputs are reused across thresholds.
	type cellOut struct {
		sim     core.SimResult
		degrees []uint32
	}
	cells := grid(datasets, algs)
	outs := mapCells(s, len(cells), func(i int) cellOut {
		c := cells[i]
		return cellOut{
			sim:     s.Simulate(c.ds, c.alg, trace.Pull),
			degrees: s.Relabeled(c.ds, c.alg).OutDegrees(),
		}
	})
	// Phase 2: serial threshold folds in grid order.
	var rows []TableIIIRow
	names := make([]string, len(algs))
	for i, alg := range algs {
		names[i] = alg.Name()
	}
	for di, ds := range datasets {
		g := s.Graph(ds)
		thresholds := []uint32{
			uint32(math.Sqrt(float64(g.NumVertices()))),
			uint32(g.AverageDegree()),
		}
		for _, thr := range thresholds {
			row := TableIIIRow{Dataset: ds.Name, MinDegree: thr, Algorithms: names}
			for ai := range algs {
				o := outs[di*len(algs)+ai]
				row.Misses = append(row.Misses, core.MissesAboveDegree(o.sim, o.degrees, thr))
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// RenderTableIII renders hub-miss rows.
func RenderTableIII(rows []TableIIIRow) string {
	var b strings.Builder
	w := newTab(&b)
	if len(rows) > 0 {
		fmt.Fprintf(w, "Dataset\tMinDeg\t%s\n", strings.Join(rows[0].Algorithms, "\t"))
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d", r.Dataset, r.MinDegree)
		for _, m := range r.Misses {
			fmt.Fprintf(w, "\t%d", m)
		}
		fmt.Fprintln(w)
	}
	w.Flush()
	return b.String()
}

// -------------------------------------------------------------- Table IV

// TableIVRow reports the SpMV execution results of one dataset (paper
// Table IV): per algorithm, wall time, idle %, simulated L3 misses and
// simulated DTLB misses.
type TableIVRow struct {
	Dataset    string
	Algorithm  string
	Time       time.Duration
	IdlePct    float64
	L3Misses   uint64
	TLBMisses  uint64
	L3MissRate float64
	// Degraded marks rows measured over the Initial ordering because the
	// RA stage failed.
	Degraded bool
}

// TableIV runs the real engine (time, idle) and the simulator (L3, DTLB)
// on every relabeled graph. Two-phase: the reorderings and simulations run
// under the parallel scheduler, then the wall-clock traversals run
// serially in grid order so contention never skews the reported times.
func TableIV(s *Session, datasets []Dataset, algs []reorder.Algorithm) []TableIVRow {
	cells := grid(datasets, algs)
	sims := mapCells(s, len(cells), func(i int) core.SimResult {
		return s.Simulate(cells[i].ds, cells[i].alg, trace.Pull)
	})
	rows := make([]TableIVRow, len(cells))
	for i, c := range cells {
		elapsed, idle := s.TimeTraversal(c.ds, c.alg, trace.Pull)
		_, deg := s.Degraded(c.ds, c.alg)
		rows[i] = TableIVRow{
			Dataset: c.ds.Name, Algorithm: c.alg.Name(),
			Time: elapsed, IdlePct: idle,
			L3Misses: sims[i].Cache.Misses, TLBMisses: sims[i].TLB.Misses,
			L3MissRate: sims[i].Cache.MissRate(),
			Degraded:   deg,
		}
	}
	return rows
}

// RenderTableIV renders SpMV execution rows; degraded rows are marked "*"
// (they measure the Initial ordering fallback).
func RenderTableIV(rows []TableIVRow) string {
	var b strings.Builder
	w := newTab(&b)
	fmt.Fprintln(w, "Dataset\tRA\tTime (ms)\tIdle (%)\tL3 Misses (K)\tDTLB Misses (K)")
	degraded := false
	for _, r := range rows {
		name := r.Algorithm
		if r.Degraded {
			name += "*"
			degraded = true
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%.1f\t%.1f\t%.1f\n",
			r.Dataset, name, fmtMillis(r.Time), r.IdlePct,
			float64(r.L3Misses)/1e3, float64(r.TLBMisses)/1e3)
	}
	w.Flush()
	if degraded {
		fmt.Fprintln(&b, "* RA stage failed; row measures the Initial-ordering fallback")
	}
	return b.String()
}

// --------------------------------------------------------------- Table V

// TableVRow reports the average effective cache size (paper Table V).
type TableVRow struct {
	Dataset   string
	Algorithm string
	ECSPct    float64
	L3Misses  uint64
}

// TableV measures ECS via periodic cache-content snapshots during the
// pull traversal of every relabeled graph. Cells run under the parallel
// scheduler; rows come back in grid order.
func TableV(s *Session, datasets []Dataset, algs []reorder.Algorithm) []TableVRow {
	cells := grid(datasets, algs)
	return mapCells(s, len(cells), func(i int) TableVRow {
		c := cells[i]
		sim := s.Simulate(c.ds, c.alg, trace.Pull)
		return TableVRow{
			Dataset: c.ds.Name, Algorithm: c.alg.Name(),
			ECSPct: sim.ECS, L3Misses: sim.Cache.Misses,
		}
	})
}

// RenderTableV renders ECS rows.
func RenderTableV(rows []TableVRow) string {
	var b strings.Builder
	w := newTab(&b)
	fmt.Fprintln(w, "Dataset\tRA\tECS (%)\tL3 Misses (K)")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%.1f\t%.1f\n",
			r.Dataset, r.Algorithm, r.ECSPct, float64(r.L3Misses)/1e3)
	}
	w.Flush()
	return b.String()
}

// --------------------------------------------------------------- Table VI

// TableVIRow compares CSC vs CSR read traversals (paper Table VI).
type TableVIRow struct {
	Dataset    string
	Kind       Kind
	CSCMisses  uint64
	CSRMisses  uint64
	CSCTime    time.Duration
	CSRTime    time.Duration
	FasterTrav string // "CSC" or "CSR"
}

// TableVI runs the pull (CSC) and push-read (CSR) traversals with the same
// read operation on each dataset. Two-phase: the per-dataset simulations
// run under the parallel scheduler, the wall-clock timings serially.
func TableVI(s *Session, datasets []Dataset) []TableVIRow {
	id := reorder.Identity{}
	type dsSims struct{ csc, csr core.SimResult }
	sims := mapCells(s, len(datasets), func(i int) dsSims {
		ds := datasets[i]
		return dsSims{
			csc: s.Simulate(ds, id, trace.Pull),
			csr: s.Simulate(ds, id, trace.PushRead),
		}
	})
	rows := make([]TableVIRow, len(datasets))
	for i, ds := range datasets {
		cscT, _ := s.TimeTraversal(ds, id, trace.Pull)
		csrT, _ := s.TimeTraversal(ds, id, trace.PushRead)
		faster := "CSC"
		if sims[i].csr.Cache.Misses < sims[i].csc.Cache.Misses {
			faster = "CSR"
		}
		rows[i] = TableVIRow{
			Dataset: ds.Name, Kind: ds.Kind,
			CSCMisses: sims[i].csc.Cache.Misses, CSRMisses: sims[i].csr.Cache.Misses,
			CSCTime: cscT, CSRTime: csrT, FasterTrav: faster,
		}
	}
	return rows
}

// RenderTableVI renders CSC-vs-CSR rows.
func RenderTableVI(rows []TableVIRow) string {
	var b strings.Builder
	w := newTab(&b)
	fmt.Fprintln(w, "Dataset\tType\tCSC Misses (K)\tCSR Misses (K)\tCSC Time (ms)\tCSR Time (ms)\tFewer misses")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%.1f\t%.1f\t%s\t%s\t%s\n",
			r.Dataset, r.Kind, float64(r.CSCMisses)/1e3, float64(r.CSRMisses)/1e3,
			fmtMillis(r.CSCTime), fmtMillis(r.CSRTime), r.FasterTrav)
	}
	w.Flush()
	return b.String()
}

// -------------------------------------------------------------- Table VII

// TableVIIRow compares SlashBurn to SlashBurn++ (paper Table VII).
type TableVIIRow struct {
	Dataset        string
	SBPreproc      time.Duration
	SBPPPreproc    time.Duration
	SBIterations   int
	SBPPIterations int
	SBTime         time.Duration
	SBPPTime       time.Duration
	SBMisses       uint64
	SBPPMisses     uint64
}

// TableVII measures the effect of stopping SlashBurn early. Two-phase:
// each dataset's fresh SB/SB++ runs and simulations form one scheduler
// cell, then the wall-clock traversals run serially in order.
func TableVII(s *Session, datasets []Dataset) []TableVIIRow {
	type dsOut struct {
		sb, sbpp     reorder.Algorithm
		rSB, rPP     reorder.Result
		itSB, itPP   int
		simSB, simPP core.SimResult
	}
	outs := mapCells(s, len(datasets), func(i int) dsOut {
		ds := datasets[i]
		// Run fresh instances directly (not via the session memo) so the
		// iteration counters belong to these runs, then seed the memo so
		// the relabeling is not recomputed.
		sb := reorder.MustNew("sb").(*reorder.SlashBurn)
		sbpp := reorder.MustNew("sb++").(*reorder.SlashBurn)
		g := s.Graph(ds)
		rSB := reorder.Run(sb, g)
		itSB := sb.Iterations()
		rPP := reorder.Run(sbpp, g)
		itPP := sbpp.Iterations()
		s.seedReorder(ds, sb, rSB)
		s.seedReorder(ds, sbpp, rPP)
		return dsOut{
			sb: sb, sbpp: sbpp, rSB: rSB, rPP: rPP, itSB: itSB, itPP: itPP,
			simSB: s.Simulate(ds, sb, trace.Pull),
			simPP: s.Simulate(ds, sbpp, trace.Pull),
		}
	})
	rows := make([]TableVIIRow, len(datasets))
	for i, ds := range datasets {
		o := outs[i]
		tSB, _ := s.TimeTraversal(ds, o.sb, trace.Pull)
		tPP, _ := s.TimeTraversal(ds, o.sbpp, trace.Pull)
		rows[i] = TableVIIRow{
			Dataset:   ds.Name,
			SBPreproc: o.rSB.Elapsed, SBPPPreproc: o.rPP.Elapsed,
			SBIterations: o.itSB, SBPPIterations: o.itPP,
			SBTime: tSB, SBPPTime: tPP,
			SBMisses: o.simSB.Cache.Misses, SBPPMisses: o.simPP.Cache.Misses,
		}
	}
	return rows
}

// RenderTableVII renders SB-vs-SB++ rows.
func RenderTableVII(rows []TableVIIRow) string {
	var b strings.Builder
	w := newTab(&b)
	fmt.Fprintln(w, "Dataset\tPre SB (s)\tPre SB++ (s)\tIters SB\tIters SB++\tTrav SB (ms)\tTrav SB++ (ms)\tL3 SB (K)\tL3 SB++ (K)")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%s\t%d\t%d\t%s\t%s\t%.1f\t%.1f\n",
			r.Dataset, fmtSeconds(r.SBPreproc), fmtSeconds(r.SBPPPreproc),
			r.SBIterations, r.SBPPIterations,
			fmtMillis(r.SBTime), fmtMillis(r.SBPPTime),
			float64(r.SBMisses)/1e3, float64(r.SBPPMisses)/1e3)
	}
	w.Flush()
	return b.String()
}

func newTab(b *strings.Builder) *tabwriter.Writer {
	return tabwriter.NewWriter(b, 2, 4, 2, ' ', 0)
}
