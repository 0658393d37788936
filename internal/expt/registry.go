package expt

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"graphlocality/internal/reorder"
)

// Selection is the part of a dataset suite an experiment runs on.
type Selection int

const (
	// AllDatasets is the whole suite.
	AllDatasets Selection = iota
	// SocialOnly is every social network, or the first dataset when the
	// suite has none.
	SocialOnly
	// Contrast is the first social network and the first web graph, in
	// suite order, or the first dataset when the suite has neither.
	Contrast
	// ContrastPair is the first social network then the first web graph;
	// a suite that lacks either side is an error.
	ContrastPair
)

// Pick returns the datasets of ds that the selection takes.
func (sel Selection) Pick(ds []Dataset) ([]Dataset, error) {
	if sel == AllDatasets {
		return ds, nil
	}
	var out []Dataset
	var social, web bool
	for _, d := range ds {
		if d.Kind == SocialNetwork && (sel == SocialOnly || !social) {
			out, social = append(out, d), true
		} else if d.Kind == WebGraph && sel != SocialOnly && !web {
			out, web = append(out, d), true
		}
	}
	if sel == ContrastPair {
		if !social || !web {
			return nil, errors.New("suite lacks a social/web contrast pair")
		}
		if out[0].Kind == WebGraph {
			out[0], out[1] = out[1], out[0]
		}
	}
	if len(out) == 0 {
		out = ds[:min(1, len(ds))]
	}
	return out, nil
}

// Experiment is one artefact of the evaluation: a table, a figure or a
// study, under the id `localitylab experiment <id>` takes.
type Experiment struct {
	ID       string
	Datasets Selection // the part of the suite it runs on
	// WallClock marks output with measured-time cells, which differ from
	// run to run; such entries are pinned by fixed-row goldens only.
	WallClock bool
	run       func(out *Output, s *Session, ds []Dataset, algs []reorder.Algorithm)
}

// Output is what one experiment run produces: the report with its
// headings, as the CLI prints it, and its CSV files by name.
type Output struct {
	Text string
	CSV  map[string][]byte
}

// section appends a heading line and a rendered body.
func (o *Output) section(heading, body string) { o.Text += heading + "\n" + body }

// addCSV records the CSV file name as write produces it.
func (o *Output) addCSV(name string, write func(w io.Writer) error) {
	var b bytes.Buffer
	if err := write(&b); err != nil {
		panic(err) // a bytes.Buffer does not fail
	}
	if o.CSV == nil {
		o.CSV = make(map[string][]byte)
	}
	o.CSV[name] = b.Bytes()
}

// Run runs the experiment on its selection of ds with the algorithm
// line-up algs (which only the per-RA experiments read).
func (e Experiment) Run(s *Session, ds []Dataset, algs []reorder.Algorithm) (Output, error) {
	picked, err := e.Datasets.Pick(ds)
	var out Output
	if err == nil {
		e.run(&out, s, picked, algs)
	}
	return out, err
}

// Experiments is every experiment, in the order `experiment all` runs
// them.
var Experiments = []Experiment{
	{ID: "table1", run: func(o *Output, s *Session, ds []Dataset, _ []reorder.Algorithm) {
		o.section("== Table I: datasets ==", RenderTableI(TableI(s, ds)))
	}},
	{ID: "table2", WallClock: true, run: func(o *Output, s *Session, ds []Dataset, algs []reorder.Algorithm) {
		o.section("== Table II: preprocessing overheads ==", RenderTableII(TableII(s, ds, algs)))
	}},
	{ID: "table3", run: func(o *Output, s *Session, ds []Dataset, algs []reorder.Algorithm) {
		o.section("== Table III: misses accessing data of vertices with degree > MinDeg ==", RenderTableIII(TableIII(s, ds, algs)))
	}},
	{ID: "table4", WallClock: true, run: func(o *Output, s *Session, ds []Dataset, algs []reorder.Algorithm) {
		rows := TableIV(s, ds, algs)
		o.section("== Table IV: SpMV execution results ==", RenderTableIV(rows))
		o.addCSV("table4.csv", func(w io.Writer) error { return WriteTableIVCSV(w, rows) })
	}},
	{ID: "table5", run: func(o *Output, s *Session, ds []Dataset, algs []reorder.Algorithm) {
		o.section("== Table V: average effective cache size ==", RenderTableV(TableV(s, ds, algs)))
	}},
	{ID: "table6", WallClock: true, run: func(o *Output, s *Session, ds []Dataset, _ []reorder.Algorithm) {
		o.section("== Table VI: CSC vs CSR read traversals ==", RenderTableVI(TableVI(s, ds)))
	}},
	{ID: "table7", Datasets: SocialOnly, WallClock: true, run: func(o *Output, s *Session, ds []Dataset, _ []reorder.Algorithm) {
		o.section("== Table VII: SlashBurn vs SlashBurn++ ==", RenderTableVII(TableVII(s, ds)))
	}},
	{ID: "fig1", run: func(o *Output, s *Session, ds []Dataset, algs []reorder.Algorithm) {
		for _, d := range ds {
			series := Fig1(s, d, algs)
			o.Text += RenderSeries(fmt.Sprintf("== Fig 1 (%s): cache miss rate (%%) degree distribution ==", d.Name), series)
			o.addCSV("fig1-"+d.Name+".csv", func(w io.Writer) error { return WriteSeriesCSV(w, series) })
		}
	}},
	{ID: "fig2", Datasets: SocialOnly, run: func(o *Output, s *Session, ds []Dataset, _ []reorder.Algorithm) {
		for _, d := range ds {
			snaps := Fig2(s, d)
			o.section(fmt.Sprintf("== Fig 2 (%s): GCC degree distribution across SB iterations ==", d.Name), RenderFig2(snaps))
			o.addCSV("fig2-"+d.Name+".csv", func(w io.Writer) error { return WriteFig2CSV(w, snaps) })
		}
	}},
	{ID: "fig3", run: func(o *Output, s *Session, ds []Dataset, _ []reorder.Algorithm) {
		for _, d := range ds {
			o.Text += RenderSeries(fmt.Sprintf("== Fig 3 (%s): AID degree distribution ==", d.Name), Fig3(s, d))
		}
	}},
	{ID: "fig4", Datasets: ContrastPair, run: func(o *Output, s *Session, ds []Dataset, _ []reorder.Algorithm) {
		series := Fig4(s, ds[0], ds[1])
		o.Text += RenderSeries("== Fig 4: asymmetricity (%) degree distribution ==", series)
		o.addCSV("fig4.csv", func(w io.Writer) error { return WriteSeriesCSV(w, series) })
	}},
	{ID: "fig5", Datasets: ContrastPair, run: func(o *Output, s *Session, ds []Dataset, _ []reorder.Algorithm) {
		res := Fig5(s, ds)
		o.section("== Fig 5: degree range decomposition ==", RenderFig5(res))
		o.addCSV("fig5.csv", func(w io.Writer) error { return WriteDecompositionCSV(w, res) })
	}},
	{ID: "fig6", run: func(o *Output, s *Session, ds []Dataset, _ []reorder.Algorithm) {
		res := Fig6(s, ds)
		o.section("== Fig 6: edges covered by in-hubs (CSR) vs out-hubs (CSC) ==", RenderFig6(res))
		o.addCSV("fig6.csv", func(w io.Writer) error { return WriteCoverageCSV(w, res) })
	}},
	{ID: "edr", WallClock: true, run: func(o *Output, s *Session, ds []Dataset, _ []reorder.Algorithm) {
		o.section("== §VIII-B2: EDR-restricted Rabbit-Order ==", RenderEDR(EDRExperiment(s, ds)))
	}},
	{ID: "gap", WallClock: true, run: func(o *Output, s *Session, ds []Dataset, _ []reorder.Algorithm) {
		o.section("== §III-B: optimized engine vs naive framework-style SpMV ==", RenderGap(FrameworkGap(s, ds)))
	}},
	{ID: "ihtl", run: func(o *Output, s *Session, ds []Dataset, _ []reorder.Algorithm) {
		o.section("== §VIII-A: iHTL flipped blocks vs plain pull vs Rabbit-Order ==", RenderIHTL(IHTLExperiment(s, ds)))
	}},
	{ID: "hybrid", Datasets: Contrast, WallClock: true, run: func(o *Output, s *Session, ds []Dataset, _ []reorder.Algorithm) {
		o.section("== §VIII-C: cache-aware RA variants and the RO+GO hybrid ==", RenderHybrid(HybridExperiment(s, ds)))
	}},
	{ID: "brew", Datasets: Contrast, run: func(o *Output, s *Session, ds []Dataset, _ []reorder.Algorithm) {
		o.section("== per-community hybrid (brew) vs every global RA ==", RenderBrew(BrewExperiment(s, ds)))
	}},
	{ID: "hilbert", run: func(o *Output, s *Session, ds []Dataset, _ []reorder.Algorithm) {
		o.section("== §IX-A: Hilbert-curve edge ordering vs row COO vs CSC pull ==", RenderHilbert(HilbertExperiment(s, ds)))
	}},
	{ID: "ablation", Datasets: Contrast, run: func(o *Output, s *Session, ds []Dataset, _ []reorder.Algorithm) {
		o.section("== ablations of the simulation method: replacement policy, cache fraction, private levels ==",
			ablation(s, ds))
	}},
	{ID: "utilization", Datasets: Contrast, run: func(o *Output, s *Session, ds []Dataset, algs []reorder.Algorithm) {
		o.section("== cache-line word utilization per RA (spatial-locality companion to Table V) ==",
			RenderUtilization(UtilizationExperiment(s, ds, algs)))
	}},
}

// ParallelBenchGrid names the experiments `localitylab bench parallel`
// times: Table II's reorder stages, Table III's simulation cells, and
// Table V and Fig. 1, which reuse Table III's memoized simulations.
var ParallelBenchGrid = []string{"table2", "table3", "table5", "fig1"}

// LookupExperiment returns the experiment with the given id.
func LookupExperiment(id string) (Experiment, bool) {
	for _, e := range Experiments {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
